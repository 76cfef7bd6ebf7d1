"""ExperimentConfig rejects non-finite float fields with ConfigError, so no
run trains on NaN or infinity; it pins its defaults; and any text for any
of its fields either builds a config or raises ConfigError."""

import math
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltinfomax.errors import ConfigError
from ltinfomax.experiments import ExperimentConfig, _coerce

# the float fields the objective and the optimizer read
FLOAT_FIELDS = ("alpha", "tau", "marginal_weight", "learning_rate")


@pytest.mark.parametrize("field,value", [
    ("marginal_weight", math.nan),
    ("alpha", math.inf),
    ("learning_rate", math.inf),
], ids=str)
def test_non_finite_field_rejected(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        ExperimentConfig(**{field: value})


def test_finite_tau_above_one_stays_legal():
    assert ExperimentConfig(tau=1.5).tau == 1.5


def test_default_config_is_pinned():
    """The objective and trainer defaults, and the hash of the whole default
    config: a changed default changes every run's config_hash."""
    config = ExperimentConfig()
    assert (config.alpha, config.tau, config.marginal_weight) == (1.5, 0.95, 1.0)
    assert (config.hidden, config.epochs, config.learning_rate) == ((64, 64), 20, 0.03)
    assert (config.labeled_batch, config.unlabeled_batch) == (16, 64)
    assert config.hash() == "42e2af23aa261fd4"


@given(field=st.sampled_from(FLOAT_FIELDS),
       value=st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats())
def test_any_float_raises_or_gives_finite_fields(field, value):
    try:
        config = ExperimentConfig(**{field: value})
    except ConfigError:
        return
    assert all(math.isfinite(getattr(config, name)) for name in FLOAT_FIELDS)


# Free text holds no digits, so every number comes from a bounded draw:
# validating num_classes takes memory in proportion to it.
TEXTS = st.one_of(
    st.text(st.characters(exclude_categories=("Nd",)), max_size=8),
    st.sampled_from(["all", "None", "TRUE", "off", "nan", "-inf", "1e400", ""]),
    st.integers(-10**4, 10**4).map(str),
    st.floats().map(repr),
    st.lists(st.integers(-10**4, 10**4), max_size=3).map(lambda xs: ",".join(map(str, xs))),
)


@given(key=st.sampled_from([f.name for f in fields(ExperimentConfig)]), text=TEXTS)
def test_any_text_for_any_field_builds_a_config_or_raises_config_error(key, text):
    """Builds configs only; nothing trains."""
    try:
        ExperimentConfig(**{key: _coerce(key, text)})
    except ConfigError:
        pass

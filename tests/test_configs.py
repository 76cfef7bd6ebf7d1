"""The library config dataclasses reject non-finite float fields with
ConfigError, so a caller who skips ExperimentConfig cannot train on NaN or
infinity; and any text for any ExperimentConfig field either builds a
config or raises ConfigError."""

import math
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltinfomax.errors import ConfigError
from ltinfomax.experiments import ExperimentConfig, _coerce
from ltinfomax.objectives import LossConfig
from ltinfomax.trainer import TrainerConfig

# config class -> (required arguments, float fields, error type)
CONFIGS = {
    LossConfig: ({}, ("alpha", "tau", "marginal_weight"), ConfigError),
    TrainerConfig: ({}, ("learning_rate",), ConfigError),
}


@pytest.mark.parametrize("cls,field,value", [
    (LossConfig, "marginal_weight", math.nan),
    (LossConfig, "alpha", math.inf),
    (TrainerConfig, "learning_rate", math.inf),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_non_finite_field_rejected(cls, field, value):
    required, _, error = CONFIGS[cls]
    with pytest.raises(error, match=f"{field} must be finite"):
        cls(**{**required, field: value})


def test_finite_tau_above_one_stays_legal():
    assert LossConfig(tau=1.5).tau == 1.5


@given(cls=st.sampled_from(list(CONFIGS)), data=st.data())
def test_any_float_raises_or_gives_finite_fields(cls, data):
    required, names, error = CONFIGS[cls]
    field = data.draw(st.sampled_from(names))
    value = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats())
    try:
        config = cls(**{**required, field: value})
    except error:
        return
    assert all(math.isfinite(getattr(config, name)) for name in names)


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

"""ExperimentConfig rejects non-finite float fields with ConfigError, so no
run trains on NaN or infinity; it rejects values of the wrong type and
stores equal values alike; it pins its defaults; and any text for any of
its fields either builds a config or raises ConfigError."""

import math
import re
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
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


# values of the wrong type, each once coerced without a word (seed 1.5 ran as
# seed 1, "12" as seeds 1 and 2, "64" as a 6-4 network, "no" as true) or left
# to fail later with a raw TypeError (epochs 2.5, num_classes 5.0, an out_dir
# that is not a path, at Path(out_dir)) or OverflowError (alpha 10**400)
WRONG_TYPES = {
    "seed-float": ("seeds", (1.5,), "seeds must be integers, got (1.5,)"),
    "seeds-text": ("seeds", "12", "seeds must be integers, got '12'"),
    "seed-bool": ("seeds", (0, True), "seeds must be integers, got (0, True)"),
    "hidden-text": ("hidden", "64", "hidden must be integers, got '64'"),
    "bool-text": ("longtail_unlabeled", "no", "longtail_unlabeled must be a bool, got 'no'"),
    "bool-int": ("longtail_unlabeled", 1, "longtail_unlabeled must be a bool, got 1"),
    "epochs-float": ("epochs", 2.5, "epochs must be an integer, got 2.5"),
    "num_classes-float": ("num_classes", 5.0, "num_classes must be an integer, got 5.0"),
    "m_l-float": ("m_l", 5.0, "m_l must be an integer, got 5.0"),
    "held_out-bool": ("held_out", True, "held_out must be an integer, got True"),
    "alpha-text": ("alpha", "1.5", "alpha must be a finite number, got '1.5'"),
    "gamma-bool": ("gamma", True, "gamma must be a finite number, got True"),
    "alpha-huge-int": ("alpha", 10**400, f"alpha must be a finite number, got {10**400}"),
    "out_dir-none": ("out_dir", None, "out_dir must be a path, got None"),
    "out_dir-int": ("out_dir", 123, "out_dir must be a path, got 123"),
    "out_dir-bytes": ("out_dir", b"x", "out_dir must be a path, got b'x'"),
}


@pytest.mark.parametrize("field, value, message", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_field_of_wrong_type_rejected(field, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("overrides, same", [
    ({"data_seed": np.int64(7)}, {"data_seed": 7}),
    ({"alpha": 1}, {"alpha": 1.0}),
    ({"gamma": np.float32(10)}, {"gamma": 10.0}),
    ({"seeds": [0, np.int64(1)], "hidden": [np.int32(8)]}, {"seeds": (0, 1), "hidden": (8,)}),
    ({"held_out": np.int64(2)}, {"held_out": 2}),
    ({"out_dir": Path("a/b")}, {"out_dir": "a/b"}),
], ids=["numpy-int", "int-for-float", "numpy-float", "numpy-entries", "held_out", "out_dir-path"])
def test_equal_values_give_equal_configs(overrides, same):
    """Ints, floats, tuples of ints and paths are stored as python values, so
    the config and its hash do not depend on how an equal value was written."""
    config, reference = ExperimentConfig(**overrides), ExperimentConfig(**same)
    assert config == reference and config.hash() == reference.hash()
    assert all(type(getattr(config, k)) is type(getattr(reference, k)) for k in overrides)


def test_many_distinct_seeds_validate_in_linear_time():
    """The repeated-seed check counts once; a count per seed took 5.5 s on 2 vCPUs."""
    start = time.perf_counter()
    ExperimentConfig(seeds=range(20000))
    assert time.perf_counter() - start < 1.0


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

"""Property tests for the benchmark spec format."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from refold.bench import BenchSpec, parse_bench_spec, serialize_bench_spec
from refold.core import DISTANCES, FOLD_OPS
from refold.errors import ConfigError

# derandomized so every run tries the same examples, with no example
# database to replay from
PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                             max_examples=200)

positive_floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
dataset_names = st.text(
    st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-"),
    min_size=1, max_size=12,
)


@st.composite
def bench_specs(draw):
    return BenchSpec(
        datasets=tuple(draw(st.lists(dataset_names, min_size=1, max_size=4))),
        fold=draw(st.sampled_from(FOLD_OPS)),
        dist=draw(st.sampled_from(DISTANCES)),
        iterations=draw(st.integers(1, 10**6)),
        threshold_mode=draw(st.sampled_from(("fixed", "grid"))),
        threshold=draw(positive_floats),
        grid=tuple(sorted(draw(st.sets(positive_floats, min_size=1, max_size=6)))),
        cv_folds=draw(st.integers(2, 50)),
        train_fraction=draw(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        ),
        repetitions=draw(st.integers(1, 10**4)),
        seed=draw(st.integers(0, 2**64 - 1)),
        include_base=draw(st.booleans()),
    )


@PROPERTY_SETTINGS
@given(bench_specs())
def test_spec_serialize_parse_roundtrip(spec):
    assert parse_bench_spec(serialize_bench_spec(spec)) == spec


# text that mostly reaches the value converters: known keys with arbitrary
# values, mixed with arbitrary lines
spec_keys = st.sampled_from((
    "datasets", "fold", "dist", "iterations", "threshold_mode", "threshold",
    "grid", "cv_folds", "train_fraction", "repetitions", "seed", "include_base",
))
spec_lines = st.one_of(
    st.builds(lambda k, v: f"{k} = {v}", spec_keys, st.text(max_size=20)),
    st.text(max_size=30),
)


@PROPERTY_SETTINGS
@given(st.one_of(st.text(), st.lists(spec_lines, max_size=8).map("\n".join)))
def test_spec_parser_raises_only_config_error(text):
    try:
        parse_bench_spec(text)
    except ConfigError:
        pass

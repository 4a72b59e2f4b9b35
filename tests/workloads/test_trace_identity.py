"""Declared trace identity over the workload registry (property tests).

``TraceWorkload.trace_key`` is the only identity the runner's trace
store knows: workloads with equal keys are served one trace.  So every constructor argument must reach the key,
and equal keys must mean bit-identical traces.
"""

import inspect

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.workloads import make_workload, workload_names

SMALL = dict(num_pages=4096, total_batches=3, batch_size=1024)


def _arguments(name: str) -> dict:
    """Every constructor argument of a registry workload at SMALL size,
    defaults filled in."""
    cls = type(make_workload(name, **SMALL))
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return {p.name: SMALL.get(p.name, p.default) for p in params}


def _perturbed(value, step: int):
    """A different value of the same kind (None becomes a batch index)."""
    if value is None:
        return step
    if isinstance(value, int):
        return value + step
    return value + 0.01 * step


def _build(name: str, kwargs: dict):
    try:
        return make_workload(name, **kwargs)
    except ValueError:
        assume(False)  # the perturbation left the valid range


def _drain(workload, seed: int) -> list:
    rng = np.random.default_rng(seed)
    trace = []
    while (batch := workload.next_batch(rng)) is not None:
        trace.append(batch)
    return trace


def _traces_equal(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(pa, pb) and np.array_equal(wa, wb) for (pa, wa), (pb, wb) in zip(a, b)
    )


@pytest.mark.parametrize(
    "name,field", [(name, field) for name in workload_names() for field in _arguments(name)]
)
@given(
    step=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=5, deadline=None)
def test_perturbing_any_constructor_argument_changes_the_key(name, field, step, seed):
    args = _arguments(name)
    base = make_workload(name, **SMALL).trace_key(seed)
    other = _build(name, {**args, field: _perturbed(args[field], step)})
    key = other.trace_key(seed)
    assert key is not None
    assert len({base, key}) == 2  # hashable (the store keys on it) and distinct
    assert other.trace_key(seed + 1) != key


@given(
    name=st.sampled_from(workload_names()),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=30, deadline=None)
def test_equal_keys_give_bit_identical_traces(name, data, seed):
    """Spelling out any subset of the defaults names the same trace."""
    args = _arguments(name)
    explicit = data.draw(st.sets(st.sampled_from(sorted(args))))
    a = make_workload(name, **SMALL)
    b = make_workload(name, **{k: args[k] for k in explicit | set(SMALL)})
    assert a.trace_key(seed) is not None
    assert a.trace_key(seed) == b.trace_key(seed)
    assert _traces_equal(_drain(a, seed), _drain(b, seed))

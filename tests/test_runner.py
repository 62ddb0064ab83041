"""The trace encoding: ``trace_lines`` writes each event's keys in a fixed
order with only the payload and reasons through the JSON encoder, and
must give the lines of a whole-dict encoding with sorted keys."""

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cogsim.metacog import EVENT_KINDS, LAYERS, ReasoningTrace
from cogsim.runner import RunConfig, run_simulation, trace_lines
from cogsim.scenario import BUNDLED, load_bundled

from helpers import reference_trace_lines

CONFIGS = {
    "default": {},
    "no_metacog": {"metacognition_enabled": False},
    "ceos": {"bct_profile": "ceos"},
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_runs_match_the_whole_dict_encoding(name, config):
    result = run_simulation(load_bundled(name), RunConfig(ticks=600, **CONFIGS[config]))
    assert trace_lines(result.state) == reference_trace_lines(result.state)


def test_kind_and_layer_names_need_no_escaping():
    for name in EVENT_KINDS | LAYERS:
        assert json.dumps(name)[1:-1] == name


# Characters the encoder escapes (quote, backslash, controls, non-ASCII
# up to one beyond the BMP) among ones it leaves as they are.
_TEXT = st.text(st.sampled_from('"\\/\x00\b\t\n\x1f\x7f\x85\u2028 aé€😀'), max_size=4)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.just(-0.0), _TEXT
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_TEXT, inner, max_size=3)
    ),
    max_leaves=6,
)
_EVENTS = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.sampled_from(sorted(LAYERS)),
        st.sampled_from(sorted(EVENT_KINDS)),
        st.dictionaries(_TEXT, _VALUES, max_size=3),
        st.one_of(st.just(()), st.lists(_TEXT, min_size=1, max_size=3)),
    ),
    max_size=6,
)


@seed(20211018)
@settings(max_examples=30, deadline=None, database=None)
@given(events=_EVENTS)
def test_appended_events_match_the_whole_dict_encoding(events):
    trace = ReasoningTrace()
    tick = 0
    for gap, layer, kind, payload, reasons in events:
        tick += gap
        trace.append(tick, layer, kind, payload, reasons)
    state = SimpleNamespace(trace=trace)
    assert trace_lines(state) == reference_trace_lines(state)

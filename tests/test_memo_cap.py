"""The memo cap: eviction moves no stream, and a long decode holds no more memory
than a short one."""

import tracemalloc

import pytest

import test_cli
import test_exact_oracle
import test_spectr_decode
from spectr import lm_sim
from spectr.lm_sim import make_model_pair, remember
from spectr.prob_core import RngStream
from spectr.spectr_decode import SelectionMethod, _shared_selector, spectr_decode


@pytest.fixture
def cap_one(monkeypatch):
    """Every memo (rows, window-prefix streams, rules) keeps one entry."""
    monkeypatch.setattr(lm_sim, "MEMO_CAP", 1)


def test_a_memo_past_its_cap_evicts_its_oldest_insertion(monkeypatch):
    monkeypatch.setattr(lm_sim, "MEMO_CAP", 2)
    memo = {}
    for key in "abc":
        assert remember(memo, key, key.upper()) == key.upper()
    assert memo == {"b": "B", "c": "C"}


def test_at_cap_one_every_memo_keeps_one_entry(cap_one):
    pair = make_model_pair(64, 2, seed=1, eps=0.3, allow_zeros=True)
    spectr_decode(pair.big, pair.small, (3, 4), 40, 0, 0, SelectionMethod.kseq(), RngStream(0),
                  drafting="tree", factors=(2, 2, 2))
    rules = _shared_selector(pair.big, pair.small, SelectionMethod.kseq()).rules
    memos = [pair.big._rows, pair.small._rows, pair.big._prefixes,
             pair.small._perturbation._prefixes, rules]
    assert [len(memo) for memo in memos] == [1] * len(memos)


@pytest.mark.parametrize("name", sorted(test_spectr_decode.STREAM_PINS))
def test_streams_are_pinned_at_cap_one(cap_one, name):
    test_spectr_decode.test_sampled_stream_is_pinned(name)


def test_speedup_golden_at_cap_one(cap_one):
    test_spectr_decode.test_simulated_speedup_golden()


@pytest.mark.parametrize("method", sorted(test_cli.TRACE_PINS))
def test_trace_files_are_pinned_at_cap_one(cap_one, capsys, tmp_path, method):
    test_cli._trace_files(capsys, tmp_path / "runs", method)


@pytest.mark.parametrize("vocab,branching,method,digest", test_exact_oracle.TABLE_PINS)
def test_oracle_tables_are_pinned_at_cap_one(cap_one, vocab, branching, method, digest):
    test_exact_oracle.test_oracle_table_is_pinned(vocab, branching, method, digest)


def _decode_peak(tokens: int) -> int:
    """tracemalloc peak, in bytes, of one decode on a fresh V = 1,024 order-2 pair."""
    pair = make_model_pair(1024, 2, seed=0, eps=0.3, allow_zeros=True)
    tracemalloc.start()
    try:
        spectr_decode(pair.big, pair.small, (1, 2), tokens, 8, 4, SelectionMethod.kseq(),
                      RngStream(0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_decode_four_times_longer_peaks_within_ten_percent():
    # Nearly every window is new, so uncapped memos grow with the run: 12.7 MB
    # after 500 tokens and 50.8 MB after 2,000; at the cap both peak near 7.7 MB.
    short, long = _decode_peak(500), _decode_peak(2000)
    assert long <= 1.1 * short, (short, long)

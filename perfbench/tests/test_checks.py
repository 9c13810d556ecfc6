"""Each correctness check passes on the program's output and fails on a known-wrong input."""

from types import SimpleNamespace

import numpy as np
import pytest

import checks
import workloads
from spectr import exact, lm_sim
from spectr import token_coupling as tc

# `spectr.spectr_decode` is the function; the module comes from sys.modules.
spectr_decode = workloads.spectr_modules()["spectr_decode"]


@pytest.fixture(scope="module")
def hot():
    wl = workloads.prepare("decode_hot", seed=5, short=True)
    output, failures = workloads.run_round(wl)
    assert failures == []
    return wl, output


def test_decode_checks_pass_on_decoder_output(hot):
    wl, output = hot
    found, stats = checks.check_decode(wl, output, spectr_decode.block_efficiency, seed=5)
    assert found == []
    assert abs(stats["z"]) < checks.Z_LIMIT < -stats["z_draft"]


def _stream(model, prompt, n, seed):
    """Tokens drawn from `model` along its own context path."""
    return checks.draft_model_stream(model, prompt, n, np.random.default_rng(seed))


def test_statistical_test_rejects_draft_model_tokens():
    pair = workloads.make_pair(workloads.spectr_modules(), workloads.DECODE_CONFIGS["decode_hot"])
    prompt = (1, 2, 3, 4)
    fake = _stream(pair.small, prompt, 2000, seed=1)
    trace = SimpleNamespace(emitted_tokens=tuple(fake))
    found, stats = checks.check_decode_statistics([trace], [prompt], pair.big, pair.small,
                                                  np.random.default_rng(2))
    assert stats["z"] < -checks.Z_LIMIT
    assert any("fail the target-law test" in f for f in found)


def test_statistical_test_accepts_target_model_tokens():
    pair = workloads.make_pair(workloads.spectr_modules(), workloads.DECODE_CONFIGS["decode_hot"])
    prompt = (1, 2, 3, 4)
    # The same sampler pointed at the target model is the exact decoder's law.
    tokens = _stream(pair.big, prompt, 2000, seed=3)
    q, p = checks.stream_rows(pair.big, pair.small, prompt, tokens)
    assert abs(checks.martingale_z(q, p, tokens)) < checks.Z_LIMIT


def test_structure_check_flags_a_wrong_block_efficiency(hot):
    wl, output = hot
    assert checks.check_decode_structure(output.traces, wl.cfg, spectr_decode.block_efficiency) == []
    found = checks.check_decode_structure(output.traces, wl.cfg, lambda t: 1.0)
    assert any("block_efficiency" in f for f in found)


def _token_case(vocab=4, k=3, seed=11):
    rng = np.random.default_rng(seed)
    p = workloads._softmax(3.0 * rng.random(vocab))
    q = workloads._softmax(3.0 * rng.random(vocab))
    pv, qv = tc.ProbVector(p), tc.ProbVector(q)
    gamma = tc.kseq_gamma_star(pv, qv, k)
    alpha_kseq = tc.kseq_acceptance(pv, qv, k, gamma)
    _, alpha_otm = tc.otm_lp_solve(pv, qv, k)
    alpha_upper, _ = tc.alpha_upper_bound(pv, qv, k)
    return p, q, k, gamma, alpha_kseq, alpha_otm, alpha_upper


def test_token_checks_pass_on_solver_output():
    assert checks.check_token_case(*_token_case()) == []


def test_otm_references_agree_with_each_other():
    p, q, k, *_ = _token_case(vocab=5, k=2, seed=4)
    assert abs(checks.otm_alpha_linprog(p, q, k) - checks.otm_alpha_mincut(p, q, k)) < 1e-9


def test_token_check_flags_alpha_off_by_1e_6():
    p, q, k, gamma, alpha_kseq, alpha_otm, alpha_upper = _token_case()
    found = checks.check_token_case(p, q, k, gamma, alpha_kseq, alpha_otm + 1e-6, alpha_upper)
    assert any("linprog" in f for f in found) and any("mincut" in f for f in found)
    found = checks.check_token_case(p, q, k, gamma, alpha_kseq - 1e-6, alpha_otm, alpha_upper)
    assert any("formula" in f for f in found)


def test_token_check_flags_gamma_off_its_minimum():
    p, q, k, gamma, alpha_kseq, alpha_otm, alpha_upper = _token_case()
    assert gamma > 1.0 + 1e-3
    bigger = gamma + 1e-3
    alpha_bigger, _ = checks.kseq_alpha(p, q, k, bigger)
    found = checks.check_token_case(p, q, k, bigger, alpha_bigger, alpha_otm, alpha_upper)
    assert any("smallest valid gamma" in f for f in found)


def test_token_check_flags_a_broken_ordering():
    p, q, k, gamma, alpha_kseq, alpha_otm, alpha_upper = _token_case()
    found = checks.check_token_case(p, q, k, gamma, alpha_kseq, alpha_otm, alpha_otm - 1e-6)
    assert any("upper bound" in f for f in found)


@pytest.fixture(scope="module")
def law():
    pair = lm_sim.make_model_pair(3, 1, 7, 0.5)
    context, branching = (1,), (2, 1)
    dist = exact.method_output_distribution(pair.big, pair.small, context, branching,
                                            spectr_decode.SelectionMethod.kseq())
    return pair, context, branching, dist


def test_chain_rule_check_passes_on_enumerated_law(law):
    pair, context, branching, dist = law
    assert checks.check_sequence_law(dist, pair.big, context, branching, 0.0) == []


def test_chain_rule_check_flags_a_planted_gap(law):
    pair, context, branching, dist = law
    seqs = sorted(dist)
    a = next(s for s in seqs if len(s) == 2)
    b = next(s for s in seqs if len(s) == 2 and s[:1] == a[:1] and s != a)
    planted = dict(dist)
    planted[a] -= 1e-5
    planted[b] += 1e-5
    found = checks.check_sequence_law(planted, pair.big, context, branching, 0.0)
    assert any("chain-rule gap" in f for f in found)
    assert not any("mass" in f for f in found)


def test_chain_rule_check_flags_lost_mass(law):
    pair, context, branching, dist = law
    short = dict(dist)
    short.pop(next(iter(short)))
    found = checks.check_sequence_law(short, pair.big, context, branching, 0.0)
    assert any("total mass" in f for f in found)

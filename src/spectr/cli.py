"""Command-line front end: coupling reports, figure sweeps, validity
verification, and decoding benchmarks.

Every run is fully determined by its flags and seed; outputs (stdout and any
files) are byte-identical across repeated invocations. Exit codes: 0 success,
1 verification failure, 2 usage error (malformed input, or a file that cannot
be read or written), 3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .prob_core import (
    ProbVector,
    RngStream,
    SpectrError,
    ValidationError,
    random_prob_vector,
    tv_distance,
)
from . import token_coupling as tc
from .lm_sim import CostModel, make_model_pair
from .spectr_decode import (
    SelectionMethod,
    baseline_decode,
    block_efficiency,
    simulated_speedup,
    spectr_decode,
)
from . import exact

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3

TOKEN_TOL = 1e-9
SEQUENCE_TOL = 1e-6


@dataclass(frozen=True)
class BenchConfig:
    """Echoable record of one CLI invocation; (config, seed) pins the run."""

    subcommand: str
    options: tuple[tuple[str, str], ...]

    @classmethod
    def from_args(cls, subcommand: str, args: argparse.Namespace) -> "BenchConfig":
        skip = {"func", "command", "output", "trace_dir", "plan_out"}
        pairs = []
        for key in sorted(vars(args)):
            if key in skip:
                continue
            pairs.append((key, str(getattr(args, key))))
        return cls(subcommand=subcommand, options=tuple(pairs))

    def echo(self) -> str:
        body = " ".join(f"{k}={v}" for k, v in self.options)
        return f"# config: {self.subcommand} {body}"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class _Report:
    """Tabular subcommand output, rendered as CSV (default) or JSON.

    CSV output is a config-echo comment line, a header row, data rows, then
    any trailing comment lines; JSON carries the same content structurally.
    """

    def __init__(self, config: BenchConfig, header: tuple[str, ...]):
        self.config = config
        self.header = header
        self.rows: list[tuple] = []
        self.comments: list[str] = []

    def row(self, *cells) -> None:
        self.rows.append(tuple(cells))

    def comment(self, text: str) -> None:
        self.comments.append(text)

    def render(self, fmt: str) -> str:
        if fmt == "json":
            payload = {
                "config": {"subcommand": self.config.subcommand,
                           **dict(self.config.options)},
                "rows": [dict(zip(self.header, map(str, row))) for row in self.rows],
                "comments": self.comments,
            }
            return json.dumps(payload, sort_keys=True, indent=2) + "\n"
        lines = [self.config.echo(), ",".join(self.header)]
        lines.extend(",".join(str(c) for c in row) for row in self.rows)
        lines.extend(f"# {c}" for c in self.comments)
        return "\n".join(lines) + "\n"

    def flush(self, fmt: str, path: str | None) -> None:
        text = self.render(fmt)
        if path is None:
            sys.stdout.write(text)
        else:
            Path(path).write_text(text)


def _parse_dist(text: str) -> ProbVector:
    """Inline comma-separated decimals, or a path to a file holding them."""
    if "," in text:
        return ProbVector.parse(text)
    path = Path(text)
    if path.is_file():
        return ProbVector.parse(path.read_text().strip())
    return ProbVector.parse(text)


def _parse_list(text: str, kind: type) -> list:
    """Comma-separated numbers of one kind (float or int); blanks are skipped."""
    try:
        return [kind(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"cannot parse a list of {kind.__name__} from {text!r}") from exc


# ---------------------------------------------------------------------------
# coupling
# ---------------------------------------------------------------------------

def cmd_coupling(args: argparse.Namespace) -> int:
    if args.cap < 1:
        raise ValidationError("--cap must be >= 1")
    p = _parse_dist(args.p)
    q = _parse_dist(args.q)
    k = args.k
    config = BenchConfig.from_args("coupling", args)
    out = _Report(config, ("method", "k", "alpha", "detail"))

    reports = []
    methods = ["maximal", "kseq", "otm", "upper"] if args.method == "all" else [args.method]
    for name in methods:
        if name == "maximal":
            alpha = 1.0 - tv_distance(p, q)
            reports.append(tc.AcceptanceReport("maximal", alpha, 1, {}))
        elif name == "kseq":
            gamma = args.gamma
            if gamma is None:
                gamma = tc._gamma_star_or_k(p, q, k, args.delta)
            alpha = tc.kseq_acceptance(p, q, k, gamma)
            reports.append(tc.AcceptanceReport("kseq", alpha, k, {"gamma": gamma}))
        elif name == "otm":
            reports.append(tc.AcceptanceReport("otm_lp", tc.alpha_star(p, q, k), k, {}))
            if args.plan_out:
                plan, _ = tc.otm_lp_solve(p, q, k, cap=args.cap)
                _write_plan(plan, args.plan_out, config)
        elif name == "upper":
            alpha, subset = tc.alpha_upper_bound(p, q, k, cap=args.cap)
            witness = "-".join(str(i) for i in subset) if subset else "empty"
            reports.append(tc.AcceptanceReport("upper_bound", alpha, k, {"subset": witness}))
        else:
            raise ValidationError(f"unknown method {name!r}")
    for rep in reports:
        detail = ";".join(
            f"{key}={_fmt(val) if isinstance(val, float) else val}"
            for key, val in sorted(rep.metadata.items()))
        out.row(rep.method, rep.k, _fmt(rep.alpha), detail)
    out.flush(args.format, args.output)
    return EXIT_OK


def _write_plan(plan: tc.TransportPlan, path: str, config: BenchConfig) -> None:
    # the plan's wire format is fixed as CSV regardless of --format
    report = _Report(config, ("draft_tuple", "output_token", "mass"))
    for tuple_text, token, mass in plan.csv_rows():
        report.row(tuple_text, token, _fmt(mass))
    report.flush("csv", path)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args: argparse.Namespace) -> int:
    if args.k_max < 1:
        raise ValidationError("--k-max must be >= 1")
    config = BenchConfig.from_args("sweep", args)
    out = _Report(config, ("family", "param", "k", "method", "alpha"))

    if args.family == "bernoulli":
        if args.b_list is None:
            raise ValidationError("bernoulli sweep requires --b-list")
        cells = [(b, ProbVector.bernoulli(args.p_head), ProbVector.bernoulli(b))
                 for b in _parse_list(args.b_list, float)]
    else:
        if args.r_list is None:
            raise ValidationError("uniform sweep requires --r-list")
        cells = []
        for r in _parse_list(args.r_list, float):
            if not r >= 1.0:
                raise ValidationError(f"r = {r!r} must be >= 1")
            support = args.d / r
            if abs(support - round(support)) > 1e-9 or round(support) < 1:
                raise ValidationError(f"d/r = {support!r} must be a positive integer")
            cells.append((r, ProbVector.uniform(args.d),
                          ProbVector.uniform(args.d, support=int(round(support)))))

    for value, p, q in cells:
        param = f"{value:g}"
        for k in range(1, args.k_max + 1):
            if args.family == "bernoulli":
                closed = tc.alpha_bernoulli_closed_form(args.p_head, value, k)
            else:
                closed = tc.alpha_uniform_closed_form(args.d, value, k)
            out.row(args.family, param, k, "closed_form", _fmt(closed))
            kseq_alpha = tc.kseq_acceptance(p, q, k, tc._gamma_star_or_k(p, q, k))
            out.row(args.family, param, k, "kseq", _fmt(kseq_alpha))
            if args.with_lp:
                out.row(args.family, param, k, "otm_lp", _fmt(tc.alpha_star(p, q, k)))
    out.flush(args.format, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    config = BenchConfig.from_args("verify", args)
    if args.k_max < 1:
        raise ValidationError("--k-max must be >= 1")
    failures = []

    if args.scope == "token":
        if args.cases < 1:
            raise ValidationError("--cases must be >= 1 for the token scope")
        out = _Report(config, ("case", "vocab", "k", "gamma_kind", "max_error", "status"))
        for case in range(args.cases):
            rng = RngStream(args.seed, path=(case,))
            vocab = 2 + case % 5
            p = random_prob_vector(vocab, rng.child(0))
            q = random_prob_vector(vocab, rng.child(1))
            k = 1 + case % args.k_max
            if args.gamma is not None:
                gammas = [("fixed", args.gamma)]
            else:
                gammas = [("gamma_star", tc.kseq_gamma_star(p, q, k)), ("k", float(k))]
            for kind, gamma in gammas:
                try:
                    marginal = tc.kseq_output_marginal(p, q, k, gamma)
                    err = float(np.abs(marginal.probs - q.probs).max())
                    status = "PASS" if err <= TOKEN_TOL else "FAIL"
                    detail = _fmt(err)
                except tc.InvalidGammaError as exc:
                    err, status, detail = float("inf"), "FAIL", f"invalid-gamma: {exc}"
                out.row(case, vocab, k, kind, detail, status)
                if status == "FAIL":
                    failures.append((err, f"token case={case} vocab={vocab} k={k} gamma={kind}"))
    else:
        out = _Report(config, ("vocab", "L", "K", "construction", "method",
                               "max_gap", "status"))
        if args.factors is None:
            for flag, value in (("--num-drafts", args.num_drafts),
                                ("--draft-len", args.draft_len)):
                if value < 1:
                    raise ValidationError(f"{flag} must be >= 1")
            branching = [args.num_drafts] + [1] * (args.draft_len - 1)
        else:
            branching = _parse_list(args.factors, int)
        pair = make_model_pair(args.vocab, order=1, seed=args.seed, eps=args.eps)
        context = (0,)
        for name in args.methods.split(","):
            method = _selection_method(name.strip(), args)
            dist = exact.method_output_distribution(
                pair.big, pair.small, context, branching, method)
            gap, cell = exact.max_chain_rule_gap(dist, pair.big, context, len(branching))
            status = "PASS" if gap <= SEQUENCE_TOL else "FAIL"
            out.row(args.vocab, len(branching), int(np.prod(branching)),
                    "iid" if args.factors is None else "tree", name.strip(), _fmt(gap), status)
            if status == "FAIL":
                failures.append((gap, f"sequence method={name} cell={cell}"))

    if failures:
        worst = max(failures, key=lambda f: f[0])
        out.comment(f"FAIL: {len(failures)} case(s); worst: {worst[1]}")
        out.flush(args.format, args.output)
        return EXIT_VERIFY_FAILED
    out.comment("PASS: all cases within tolerance")
    out.flush(args.format, args.output)
    return EXIT_OK


def _selection_method(name: str, args: argparse.Namespace) -> SelectionMethod:
    if name == "maximal":
        return SelectionMethod.maximal()
    if name == "kseq":
        return SelectionMethod.kseq(gamma_policy=args.gamma_policy)
    if name in ("otm", "otm_lp"):
        return SelectionMethod.otm_lp()
    raise ValidationError(f"unknown selection method {name!r}")


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

def cmd_decode(args: argparse.Namespace) -> int:
    if args.prompts < 1:
        raise ValidationError("--prompts must be >= 1")
    if args.prompt_len < 0:
        raise ValidationError("--prompt-len must be >= 0")
    config = BenchConfig.from_args("decode", args)
    pair = make_model_pair(args.vocab, args.order, args.seed, args.eps,
                           allow_zeros=args.allow_zeros)
    cost = CostModel(big_call_cost=args.big_cost, small_call_cost=args.small_cost,
                     overhead_per_iter=args.overhead)
    factors = None if args.factors is None else _parse_list(args.factors, int)

    traces = []
    for i in range(args.prompts):
        run_seed = args.seed + i
        rng = RngStream(run_seed)
        prompt_draws = rng.child(0).uniforms(args.prompt_len)
        prompt = tuple(int(u * args.vocab) % args.vocab for u in prompt_draws)
        if args.method == "baseline":
            trace = baseline_decode(pair.big, prompt, args.tokens, rng.child(1), cost=cost)
        else:
            method = _selection_method(args.method, args)
            trace = spectr_decode(pair.big, pair.small, prompt, args.tokens,
                                  args.num_drafts, args.draft_len, method, rng.child(1),
                                  drafting="iid" if factors is None else "tree",
                                  factors=factors, cost=cost)
        traces.append(trace)
        if args.trace_dir:
            directory = Path(args.trace_dir)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / f"trace_{i:04d}.json").write_text(trace.to_json())

    effs = np.array([block_efficiency(t) for t in traces])
    speedups = np.array([simulated_speedup(t, cost) for t in traces])
    stderr = float(effs.std(ddof=1) / np.sqrt(len(effs))) if len(effs) > 1 else 0.0

    out = _Report(config, ("algorithm", "K", "L", "mean_block_efficiency",
                           "stderr_block_efficiency", "mean_simulated_speedup"))
    if args.method == "baseline":
        k_label, l_label = "-", "-"
    elif factors is not None:
        k_label, l_label = int(np.prod(factors)), len(factors)
    else:
        k_label, l_label = args.num_drafts, args.draft_len
    out.row(args.method, k_label, l_label, _fmt(float(effs.mean())),
            _fmt(stderr), _fmt(float(speedups.mean())))
    out.flush(args.format, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectr",
        description="Speculative decoding with multiple drafts: acceptance sweeps, "
                    "validity verification, and toy decoding benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    cp = sub.add_parser("coupling", help="acceptance probability for one (p, q, k)")
    cp.add_argument("--p", required=True, help="draft distribution, inline or file path")
    cp.add_argument("--q", required=True, help="target distribution, inline or file path")
    cp.add_argument("--k", type=int, default=1)
    cp.add_argument("--method", default="all",
                    choices=["maximal", "kseq", "otm", "upper", "all"])
    cp.add_argument("--gamma", type=float, default=None,
                    help="fixed division factor for kseq (default: gamma*)")
    cp.add_argument("--delta", type=float, default=tc.DEFAULT_GAMMA_DELTA)
    cp.add_argument("--cap", type=int, default=tc.DEFAULT_TUPLE_CAP,
                    help="largest |supp(p)|^k that --plan-out and --method upper enumerate")
    cp.add_argument("--plan-out", dest="plan_out", default=None,
                    help="write an optimal transport plan as CSV")
    cp.add_argument("--format", default="csv", choices=["csv", "json"])
    cp.add_argument("--output", default=None)
    cp.set_defaults(func=cmd_coupling)

    sw = sub.add_parser("sweep", help="acceptance curves for canonical families")
    sw.add_argument("--family", required=True, choices=["bernoulli", "uniform"])
    sw.add_argument("--p-head", dest="p_head", type=float, default=0.25)
    sw.add_argument("--b-list", dest="b_list", default=None)
    sw.add_argument("--d", type=int, default=120)
    sw.add_argument("--r-list", dest="r_list", default=None)
    sw.add_argument("--k-max", dest="k_max", type=int, default=8)
    sw.add_argument("--with-lp", dest="with_lp", action="store_true",
                    help="add the exact optimum, alpha_star, as otm_lp rows")
    sw.add_argument("--format", default="csv", choices=["csv", "json"])
    sw.add_argument("--output", default=None)
    sw.set_defaults(func=cmd_sweep)

    vf = sub.add_parser("verify", help="exactness oracles for token and sequence selection")
    vf.add_argument("--scope", required=True, choices=["token", "sequence"])
    vf.add_argument("--cases", type=int, default=100)
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--k-max", dest="k_max", type=int, default=8)
    vf.add_argument("--gamma", type=float, default=None,
                    help="override gamma for every token-scope case")
    vf.add_argument("--vocab", type=int, default=3)
    vf.add_argument("--draft-len", dest="draft_len", type=int, default=2)
    vf.add_argument("--num-drafts", dest="num_drafts", type=int, default=2)
    vf.add_argument("--eps", type=float, default=0.5)
    vf.add_argument("--methods", default="kseq,otm")
    vf.add_argument("--factors", default=None,
                    help="prefix-tree branching factors, replacing --num-drafts and --draft-len")
    vf.add_argument("--gamma-policy", dest="gamma_policy", default="gamma_star",
                    choices=["gamma_star", "k_initial"])
    vf.add_argument("--format", default="csv", choices=["csv", "json"])
    vf.add_argument("--output", default=None)
    vf.set_defaults(func=cmd_verify)

    dc = sub.add_parser("decode", help="toy decoding benchmark")
    dc.add_argument("--vocab", type=int, default=16)
    dc.add_argument("--order", type=int, default=1)
    dc.add_argument("--seed", type=int, default=0)
    dc.add_argument("--eps", type=float, default=0.3)
    dc.add_argument("--allow-zeros", dest="allow_zeros", action="store_true")
    dc.add_argument("--method", default="kseq",
                    choices=["baseline", "maximal", "kseq", "otm"])
    dc.add_argument("--gamma-policy", dest="gamma_policy", default="gamma_star",
                    choices=["gamma_star", "k_initial"])
    dc.add_argument("--factors", default=None,
                    help="prefix-tree branching factors, replacing --num-drafts and --draft-len")
    dc.add_argument("--num-drafts", dest="num_drafts", type=int, default=4)
    dc.add_argument("--draft-len", dest="draft_len", type=int, default=4)
    dc.add_argument("--prompts", type=int, default=8)
    dc.add_argument("--prompt-len", dest="prompt_len", type=int, default=1)
    dc.add_argument("--tokens", type=int, default=64)
    dc.add_argument("--big-cost", dest="big_cost", type=float, default=1.0)
    dc.add_argument("--small-cost", dest="small_cost", type=float, default=0.0)
    dc.add_argument("--overhead", type=float, default=0.0)
    dc.add_argument("--trace-dir", dest="trace_dir", default=None)
    dc.add_argument("--format", default="csv", choices=["csv", "json"])
    dc.add_argument("--output", default=None)
    dc.set_defaults(func=cmd_decode)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tc.SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (SpectrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

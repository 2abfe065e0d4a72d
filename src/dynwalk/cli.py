"""Script-driven harness and embedded selftest.

Scripts are line-oriented: one command per line, "#" starts a comment.

    init n=<int> d=<int> [alpha=<p/q>] [prec=exact|bits:<int>] [ell=<int>]
         [mode=direct|muddled] [L=<int>]
    batch <+|->(u,v) [more ops, space-separated]
    query expansion
    query entry <s> <t> <j>
    query lambda tol=<p/q>
    query conductance
    trace on|off

Only queries (and errors) produce output, one line each, so a transcript
is byte-reproducible from its script.  Parse errors are reported with
their line number and poison the exit code; semantic errors (rejected
batches, stale precision, refused queries) become "error: ..." lines and
execution continues.  A broken internal contract (an AssertionError
from the library, such as a zero pivot or an oversized remainder) is
reported as "internal error at line N: ..." and stops the script, with
exit code 3.
"""

from __future__ import annotations

import argparse
import io
import re
import sys
import traceback
from dataclasses import dataclass

from .numerics import BudgetExhausted, Rat, format_rat, parse_rat
from .graph import BatchRejected, EdgeBatch, EdgeOp, lazy_transition
from .dyncore import apply_batch, initial_state, read_power_entry
from .expander import PrecisionRefusal, TesterConfig, expansion_query
from .muddle import MuddleConfig, MuddleTimeline
from .oracle import conductance_bruteforce, second_eigenvalue

__all__ = ["Transcript", "run_script", "run_selftest", "main"]


@dataclass(frozen=True)
class Transcript:
    lines: tuple
    parse_errors: int
    internal_error: bool = False

    @property
    def exit_code(self) -> int:
        """3 after an internal error, else 1 after a parse error, else 0."""
        if self.internal_error:
            return 3
        return 1 if self.parse_errors else 0

    @property
    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)


class _ParseError(Exception):
    pass


_OP_RE = re.compile(r"^([+-])\((\d+),(\d+)\)$")


def _parse_kv(tokens, allowed, required, where):
    seen = {}
    for tok in tokens:
        if "=" not in tok:
            raise _ParseError(f"expected key=value, got {tok!r} in {where}")
        key, _, val = tok.partition("=")
        if key not in allowed:
            raise _ParseError(f"unknown {where} parameter {key!r}")
        if key in seen:
            raise _ParseError(f"duplicate {where} parameter {key!r}")
        seen[key] = val
    for key in required:
        if key not in seen:
            raise _ParseError(f"{where} needs {key}=...")
    return seen


def _int(val: str, what: str) -> int:
    try:
        return int(val, 10)
    except ValueError:
        raise _ParseError(f"{what} must be an integer, got {val!r}") from None


def _rational(val: str, what: str) -> Rat:
    try:
        return parse_rat(val)
    except ValueError:
        raise _ParseError(f"{what} must be p/q, got {val!r}") from None


class _Runner:
    """Holds the state the script builds up command by command."""

    def __init__(self):
        self.out = []
        self.parse_errors = 0
        self.internal_error = False
        self.tracing = False
        self.cfg = None
        self.state = None
        self.timeline = None

    # -- command handlers ----------------------------------------------

    def do_init(self, tokens):
        kv = _parse_kv(
            tokens,
            allowed={"n", "d", "alpha", "prec", "ell", "mode", "L"},
            required={"n", "d"},
            where="init",
        )
        n = _int(kv["n"], "n")
        d = _int(kv["d"], "d")
        alpha = _rational(kv.get("alpha", "1/2"), "alpha")
        prec = kv.get("prec", "exact")
        if prec == "exact":
            bits = None
        elif prec.startswith("bits:"):
            bits = _int(prec[5:], "bits width")
        else:
            raise _ParseError(f"prec must be exact or bits:<int>, got {prec!r}")
        run_mode = kv.get("mode", "direct")
        if run_mode not in ("direct", "muddled"):
            raise _ParseError(f"mode must be direct or muddled, got {run_mode!r}")
        if "ell" in kv:
            ell = _int(kv["ell"], "ell")
        else:
            ell = TesterConfig.default_ell(n, alpha)
        latency = _int(kv["L"], "L") if "L" in kv else max(n - 1, 1).bit_length()
        k = 4 * ell
        try:
            tester = TesterConfig(alpha, d, ell)
            if run_mode == "muddled":
                if bits is None:
                    raise ValueError("muddled mode needs prec=bits:<int>")
                timeline = MuddleTimeline(MuddleConfig(n, d, k, latency, bits))
                state = None
            else:
                timeline = None
                state = initial_state(n, d, k, bits=bits)
        except ValueError as exc:
            self.out.append(f"error: {exc}")
            return
        self.cfg = {
            "n": n,
            "d": d,
            "tester": tester,
            "mode": run_mode,
            "ell": ell,
        }
        self.state = state
        self.timeline = timeline

    def _require_init(self):
        if self.cfg is None:
            raise ValueError("not initialized; the first command must be init")

    def _current_state(self):
        if self.cfg["mode"] == "muddled":
            return self.timeline.served
        return self.state

    def do_batch(self, tokens):
        self._require_init()
        ops = []
        for tok in tokens:
            m = _OP_RE.match(tok)
            if m is None:
                raise _ParseError(f"bad edge op {tok!r}; expected +(u,v) or -(u,v)")
            kind = "insert" if m.group(1) == "+" else "delete"
            ops.append(EdgeOp(kind, int(m.group(2)), int(m.group(3))))
        batch = EdgeBatch(tuple(ops))
        if self.cfg["mode"] == "muddled":
            self.timeline.step(batch)
            if self.tracing:
                self.out.append("trace: " + self.timeline.trace[-1].line())
        else:
            self.state = apply_batch(self.state, batch)
            if self.tracing:
                st = self.state
                spent = st.budget.bits_spent if st.is_bits else 0
                self.out.append(
                    f"trace: step={st.step_count} version={st.version} spent={spent}"
                )

    def do_query(self, tokens):
        self._require_init()
        if not tokens:
            raise _ParseError("query needs a subject")
        subject, rest = tokens[0], tokens[1:]
        if subject == "expansion":
            if rest:
                raise _ParseError("query expansion takes no arguments")
            verdict = expansion_query(self._current_state(), self.cfg["tester"])
            if verdict.accept:
                self.out.append("expansion: accept")
            else:
                self.out.append(
                    f"expansion: reject witness={verdict.witness} "
                    f"value={format_rat(verdict.value)}"
                )
        elif subject == "entry":
            if len(rest) != 3:
                raise _ParseError("query entry needs <s> <t> <j>")
            s, t, j = (_int(v, "entry index") for v in rest)
            val = read_power_entry(self._current_state(), s, t, j)
            self.out.append(f"entry: {format_rat(val)}")
        elif subject == "lambda":
            kv = _parse_kv(rest, allowed={"tol"}, required={"tol"}, where="lambda")
            tol = _rational(kv["tol"], "tol")
            t = lazy_transition(self._current_state().graph)
            bracket = second_eigenvalue(t, tol)
            self.out.append(
                f"lambda: lower={format_rat(bracket.lower)} "
                f"upper={format_rat(bracket.upper)}"
            )
        elif subject == "conductance":
            if rest:
                raise _ParseError("query conductance takes no arguments")
            report = conductance_bruteforce(self._current_state().graph)
            members = ",".join(str(v) for v in report.best_set)
            self.out.append(
                f"conductance: {format_rat(report.phi)} set={members}"
            )
        else:
            raise _ParseError(f"unknown query subject {subject!r}")

    def do_trace(self, tokens):
        if len(tokens) != 1 or tokens[0] not in ("on", "off"):
            raise _ParseError("trace takes exactly one of: on, off")
        self.tracing = tokens[0] == "on"

    # -- the line loop ---------------------------------------------------

    def feed(self, lineno: int, raw: str):
        line = raw.split("#", 1)[0].strip()
        if not line:
            return
        tokens = line.split()
        cmd, args = tokens[0], tokens[1:]
        try:
            if cmd == "init":
                self.do_init(args)
            elif cmd == "batch":
                self.do_batch(args)
            elif cmd == "query":
                self.do_query(args)
            elif cmd == "trace":
                self.do_trace(args)
            else:
                raise _ParseError(f"unknown command {cmd!r}")
        except _ParseError as exc:
            self.parse_errors += 1
            self.out.append(f"parse error at line {lineno}: {exc}")
        except (BatchRejected, BudgetExhausted, PrecisionRefusal, ValueError) as exc:
            self.out.append(f"error: {exc}")
        except AssertionError as exc:
            self.internal_error = True
            self.out.append(f"internal error at line {lineno}: {exc}")


def run_script(stream) -> Transcript:
    """Execute a script and return its deterministic transcript."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    runner = _Runner()
    for lineno, raw in enumerate(stream, start=1):
        runner.feed(lineno, raw)
        if runner.internal_error:
            break
    return Transcript(tuple(runner.out), runner.parse_errors, runner.internal_error)


# -- selftest ---------------------------------------------------------------


def run_selftest(out=None) -> int:
    """Cross-check the incremental layer against the oracles; 0 iff green.

    Everything is seeded and small: the point is a fast embedded sanity
    suite, not a substitute for the full test run.
    """
    import random

    from .linalg import PolyMatrix, RatMatrix, det_rational_crt
    from .matpow import naive_power, power_large, power_sum, small_powers_via_series
    from .poly import UniPoly, divide_monic
    from .graph import DynGraph
    from . import dyncore
    from .oracle import det_bareiss, exact_power_sum, walk_count_dp

    if out is None:
        out = sys.stdout
    rng = random.Random(20240817)
    suites = []

    def suite(name):
        def wrap(fn):
            suites.append((name, fn))
            return fn

        return wrap

    def check(ok):
        # raised explicitly so the suite still checks under python -O
        if not ok:
            raise AssertionError("selftest check failed")

    def rand_rat(bound=6):
        return Rat(rng.randint(-bound, bound), rng.randint(1, bound))

    @suite("division")
    def _division():
        checks = 0
        for _ in range(20):
            df = rng.randint(1, 6)
            dg = rng.randint(df, 10)
            f = UniPoly([rand_rat() for _ in range(df)] + [Rat(1)])
            g = UniPoly([rand_rat() for _ in range(dg)] + [Rat(1)])
            q, r = divide_monic(g, f)
            check(q * f + r == g)
            check(r.degree < f.degree)
            checks += 1
        return checks

    @suite("determinants")
    def _dets():
        checks = 0
        for _ in range(25):
            n = rng.randint(1, 6)
            m = RatMatrix(
                [[Rat(rng.randint(-9, 9), 10) for _ in range(n)] for _ in range(n)]
            )
            check(det_rational_crt(m, 8) == det_bareiss(m))
            checks += 1
        return checks

    @suite("power cascade")
    def _cascade():
        checks = 0
        for _ in range(6):
            l = rng.randint(2, 4)
            d = rng.randint(0, 2)
            m = PolyMatrix(
                [
                    [
                        UniPoly(
                            [
                                Rat(rng.randint(-1, 1), 6 * l * (j + 1))
                                for j in range(d + 1)
                            ]
                        )
                        for _ in range(l)
                    ]
                    for _ in range(l)
                ]
            )
            k = rng.randint(1, 9)
            check(power_large(m, k) == naive_power(m, k))
            checks += 1
        for _ in range(6):
            l = rng.randint(2, 4)
            m = RatMatrix(
                [
                    [Rat(rng.randint(-1, 1), 3 * l + rng.randint(0, 3)) for _ in range(l)]
                    for _ in range(l)
                ]
            )
            table = small_powers_via_series(m, l)
            acc = RatMatrix.identity(l)
            for i in range(l + 1):
                check(table[i] == acc)
                acc = acc.mul(m)
            checks += 1
        # the cascade's power sum against the oracle's Horner accumulation
        m = PolyMatrix(
            [
                [UniPoly([Rat(0), Rat(1, 24)]), UniPoly([Rat(1, 30)])],
                [UniPoly([Rat(-1, 30), Rat(1, 40)]), UniPoly([Rat(0)])],
            ]
        )
        check(exact_power_sum(m, 7) == power_sum(m, 7))
        checks += 1
        return checks

    @suite("incremental vs oracle")
    def _incremental():
        checks = 0
        st = dyncore.initial_state(6, 2, 8)
        for _ in range(12):
            ops = []
            work = st.graph.copy()
            for _ in range(rng.randint(1, 2)):
                for _ in range(30):
                    u = rng.randrange(6)
                    v = rng.randrange(6)
                    if u == v:
                        continue
                    if work.has_edge(u, v):
                        ops.append(EdgeOp("delete", u, v))
                        work = DynGraph(
                            6, 2, work.adjacency - {(min(u, v), max(u, v))}
                        )
                        break
                    if work.degree(u) < 2 and work.degree(v) < 2:
                        ops.append(EdgeOp("insert", u, v))
                        work = DynGraph(
                            6, 2, work.adjacency | {(min(u, v), max(u, v))}
                        )
                        break
            st = apply_batch(st, EdgeBatch(tuple(ops)))
            # the oracle starts from the graph, not from the state's own B
            want_b = dyncore.bipartite_embed(
                PolyMatrix.from_rational(lazy_transition(st.graph))
            )
            check(st.B == want_b and st.G == exact_power_sum(want_b, st.K))
            checks += 1
        # force the cascade route and compare against the direct route
        st_direct = dyncore.initial_state(5, 2, 6)
        st_cascade = dyncore.initial_state(5, 2, 6, cascade_threshold=0)
        batch = EdgeBatch(
            (EdgeOp("insert", 0, 1), EdgeOp("insert", 2, 3), EdgeOp("insert", 3, 4))
        )
        st_direct = apply_batch(st_direct, batch)
        st_cascade = apply_batch(st_cascade, batch)
        check(st_direct.G == st_cascade.G)
        checks += 1
        return checks

    @suite("walk counting")
    def _walks():
        checks = 0
        for _ in range(8):
            n = rng.randint(2, 5)
            a = RatMatrix(
                [[Rat(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            )
            st = dyncore.state_from_matrix(a, 8)
            s, t = rng.randrange(n), rng.randrange(n)
            dp = walk_count_dp(a, s, t, 4)
            for j in range(4):
                check(st.G.rows[s][n + t][2 * j + 1] == dp[j + 1])
            for j in range(5):
                check(dyncore.read_power_entry(st, s, t, j) == dp[j])
            checks += 1
        return checks

    failures = 0
    total = 0
    for name, fn in suites:
        try:
            count = fn()
            out.write(f"suite {name}: pass ({count} checks)\n")
            total += count
        except Exception:
            # a suite that raises fails like one whose check fails, and
            # the suites after it still run; stderr gets the reason
            traceback.print_exc()
            failures += 1
            out.write(f"suite {name}: FAIL\n")
    if failures:
        out.write(f"selftest: {failures} of {len(suites)} suites failed\n")
        return 2
    out.write(f"selftest: {len(suites)} suites passed ({total} checks)\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dynwalk",
        description="dynamic walk generating functions and expansion testing",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a script and print its transcript")
    runp.add_argument(
        "script",
        nargs="?",
        default="-",
        help="script path, or - for stdin (default)",
    )
    sub.add_parser("selftest", help="run the embedded invariant suite")
    args = parser.parse_args(argv)
    if args.command == "selftest":
        return run_selftest()
    if args.script == "-":
        transcript = run_script(sys.stdin.read())
    else:
        with open(args.script, "r", encoding="utf-8") as fh:
            transcript = run_script(fh)
    sys.stdout.write(transcript.text)
    return transcript.exit_code


if __name__ == "__main__":
    sys.exit(main())

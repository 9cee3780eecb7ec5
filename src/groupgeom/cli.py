"""Command-line interface.

Exit codes: 0 for success (EQUAL / PASS), 1 for a definite negative
(NOT-EQUAL / FAIL / counterexample found), 2 for Unknown, an undecided
computation or a usage error.  Usage and parse errors go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .bench import WordSource, run_bench
from .cayley import build_ball
from .dehn import dehn_reduce, verify_dehn_presentation
from .hplane import THINNESS_BOUND, verify_thinness_bound
from .isoperimetry import ORACLE_CAPS, AreaCaps, area, default_caps, dehn_function, fit_growth
from .oracle import Tristate, UndecidedError, canonical_form, words_equal
from .qi import compare_metrics
from .thinness import delta_estimate
from .words import (
    ParseError,
    Presentation,
    format_presentation,
    format_word,
    parse_presentation,
    parse_word,
    standard_presentation,
)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="groupgeom",
        description="Word problems and coarse geometry for finitely presented groups.",
    )
    top.add_argument("--version", action="version", version=f"groupgeom {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def with_pres(p):
        p.add_argument("--pres", required=True, metavar="FILE", help="presentation file")
        return p

    p = with_pres(sub.add_parser("reduce", help="greedy relator rewriting of a word"))
    p.add_argument("word")

    p = with_pres(sub.add_parser("equal", help="decide whether two words agree"))
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--max-area", type=int)
    p.add_argument("--max-len", type=int)

    p = with_pres(sub.add_parser("normal-form", help="canonical spelling of a word"))
    p.add_argument("word")
    p.add_argument("--max-radius", type=int, default=6)

    p = with_pres(
        sub.add_parser("verify-dehn", help="does greedy rewriting solve this presentation?")
    )
    p.add_argument("--insertions", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)

    p = with_pres(sub.add_parser("ball", help="Cayley ball as JSON"))
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--out", metavar="FILE.json")

    p = with_pres(sub.add_parser("delta", help="triangle thinness over a ball"))
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")

    p = with_pres(sub.add_parser("area", help="minimal relator applications to kill a word"))
    p.add_argument("word")
    p.add_argument("--max-area", type=int)
    p.add_argument("--max-len", type=int)

    p = with_pres(sub.add_parser("dehn-function", help="filling areas by word length (CSV)"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-area", type=int)
    p.add_argument("--max-len", type=int)

    p = sub.add_parser("fit", help="classify growth of a CSV table (n,value)")
    p.add_argument("csv", nargs="?", help="CSV path; stdin when omitted")

    p = with_pres(sub.add_parser("qi", help="fit quasi-isometry constants for two generating sets"))
    p.add_argument("--gens-b", required=True, help="comma-separated words, e.g. a,b,ab")
    p.add_argument("--gens-a", help="defaults to the presentation's generators")
    p.add_argument("--radius", type=int, required=True)

    hp = sub.add_parser("hplane", help="hyperbolic plane checks")
    hsub = hp.add_subparsers(dest="hplane_command", required=True)
    p = hsub.add_parser("verify", help="sampled triangles against the thinness bound")
    p.add_argument("--triangles", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--diameter", type=float, default=25.0)
    p.add_argument("--samples", type=int, default=48)

    p = with_pres(sub.add_parser("bench", help="step counts of a solver by input size (CSV)"))
    p.add_argument("--solver", choices=["dehn", "zz-nf"], required=True)
    p.add_argument("--sizes", required=True, help="comma-separated lengths, e.g. 4,8,12")
    p.add_argument("--source", choices=["worst", "random", "trivial"], required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--insertions", type=int, default=WordSource.insertions)

    p = sub.add_parser("pres", help="write a standard presentation file")
    p.add_argument("--family", choices=["free", "zz", "surface"], required=True)
    p.add_argument("--param", type=int, default=0)
    p.add_argument("--out", metavar="FILE")
    return top


def _load_presentation(path: str) -> Presentation:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    return parse_presentation(text)


def _ball_payload(pres, ball) -> dict:
    return {
        "radius": ball.radius,
        "vertices": [format_word(w, pres) for w in ball.vertices],
        "edges": [[u, format_word((letter,), pres), v] for u, letter, v in ball.edges],
        "dist": list(ball.dist),
    }


def _emit(text: str, out: Optional[str]) -> None:
    """Write ``text`` to the file ``out``, or to stdout when there is none."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _area_caps(args, caps: AreaCaps) -> AreaCaps:
    """``--max-area`` and ``--max-len``, each defaulting to its field of ``caps``."""
    return AreaCaps(
        caps.max_area if args.max_area is None else args.max_area,
        caps.max_intermediate_length if args.max_len is None else args.max_len,
    )


_EQUAL_EXIT = {Tristate.EQUAL: 0, Tristate.NOT_EQUAL: 1, Tristate.UNKNOWN: 2}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (ParseError, ValueError, MemoryError, UndecidedError) as exc:
        # A failed allocation raises MemoryError with no text.
        print(f"error: {str(exc) or f'{args.command} ran out of memory'}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    pres = _load_presentation(args.pres) if hasattr(args, "pres") else None

    if cmd == "reduce":
        word = parse_word(args.word, pres)
        reduced, trace = dehn_reduce(pres, word)
        print(f"{format_word(reduced, pres)} steps={trace.step_count}")
        return 0

    if cmd == "equal":
        u = parse_word(args.u, pres)
        v = parse_word(args.v, pres)
        answer = words_equal(pres, u, v, _area_caps(args, ORACLE_CAPS))
        print(answer.value.upper())
        return _EQUAL_EXIT[answer]

    if cmd == "normal-form":
        word = parse_word(args.word, pres)
        print(format_word(canonical_form(pres, word, args.max_radius), pres))
        return 0

    if cmd == "verify-dehn":
        verdict = verify_dehn_presentation(pres, args.insertions, args.max_len)
        if verdict.holds:
            print(f"PASS words-checked={verdict.words_checked}")
            return 0
        print(f"FAIL {format_word(verdict.counterexample, pres)}")
        return 1

    if cmd == "ball":
        ball = build_ball(pres, args.radius)
        _emit(json.dumps(_ball_payload(pres, ball)) + "\n", args.out)
        return 0

    if cmd == "delta":
        if args.sample is not None and args.seed is None:
            raise ValueError("--sample needs an explicit --seed")
        ball = build_ball(pres, args.radius)
        report = delta_estimate(ball, sample_count=args.sample, seed=args.seed)
        wit = report.witness

        def vertex(i: int) -> str:
            return format_word(ball.vertices[i], pres)

        if args.json:
            payload = {
                "delta": report.delta,
                "trianglesExamined": report.triangles_examined,
                "samplingPolicy": report.sampling_policy,
                "witness": None
                if wit is None
                else {
                    "triangle": [vertex(i) for i in wit.triangle],
                    "point": vertex(wit.point),
                    "nearest": vertex(wit.nearest),
                    "distance": wit.distance,
                },
            }
            print(json.dumps(payload))
        else:
            line = f"delta={report.delta} triangles={report.triangles_examined}"
            if wit is not None:
                tri = ",".join(vertex(i) for i in wit.triangle)
                line += f" witness-triangle=({tri}) p={vertex(wit.point)} q={vertex(wit.nearest)}"
            print(line)
        return 0

    if cmd == "area":
        word = parse_word(args.word, pres)
        result = area(pres, word, _area_caps(args, default_caps(pres, len(word))))
        if result.value is None:
            print("UNKNOWN")
            return 2
        print(result.value)
        return 0

    if cmd == "dehn-function":
        table = dehn_function(pres, args.n, _area_caps(args, default_caps(pres, args.n)))
        print("n,maxArea,argmax")
        for row in table.rows:
            print(f"{row.n},{row.max_area},{format_word(row.argmax, pres)}")
        return 0

    if cmd == "fit":
        if args.csv:
            lines = Path(args.csv).read_text().splitlines()
        else:
            lines = sys.stdin.read().splitlines()
        rows = []
        for line in lines:
            parts = [p.strip() for p in line.split(",")]
            try:
                float(parts[0])
            except ValueError:
                continue  # header or annotation line
            try:
                rows.append((int(parts[0]), float(parts[1])))
            except (ValueError, IndexError):
                raise ValueError(
                    f"row {line!r}: needs an integer length and a finite value"
                ) from None
        growth = fit_growth(rows)
        print(
            f"{growth.kind} exponent={_fmt(growth.exponent)} residual={_fmt(growth.residual)}"
        )
        return 0

    if cmd == "qi":
        gens_b = [parse_word(w.strip(), pres) for w in args.gens_b.split(",") if w.strip()]
        gens_a = None
        if args.gens_a is not None:
            gens_a = [parse_word(w.strip(), pres) for w in args.gens_a.split(",") if w.strip()]
        report = compare_metrics(pres, gens_a, gens_b, args.radius)
        print(f"lambda={_fmt(report.lam)} c={report.c} elements={report.element_count}")
        return 0

    if cmd == "hplane":
        survey = verify_thinness_bound(
            args.triangles, args.seed, args.diameter, args.samples
        )
        status = "PASS" if survey.passed else "FAIL"
        print(
            f"max-thinness={_fmt(survey.max_thinness)} bound={_fmt(THINNESS_BOUND)} {status}"
        )
        return 0 if survey.passed else 1

    if cmd == "bench":
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
        source = WordSource(args.source, seed=args.seed, insertions=args.insertions)
        rows = run_bench(pres, args.solver, sizes, source)
        print("n,steps,wallNanos,trials")
        for row in rows:
            print(f"{row.n},{row.steps},{row.wall_nanos},{row.trials}")
        return 0

    if cmd == "pres":
        _emit(format_presentation(standard_presentation(args.family, args.param)), args.out)
        return 0

    raise ValueError(f"unhandled command {cmd!r}")


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

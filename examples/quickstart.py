#!/usr/bin/env python
"""Quickstart: loop flattening in five minutes.

Walks the paper's Section 3 end to end on the running EXAMPLE:

1. parse the sequential F77 loop nest (Figure 1);
2. ask the compiler whether flattening applies (Section 6);
3. derive the *naive* SIMD version (Figure 5) and watch it take
   Equation 2's sum-of-maxima steps;
4. derive the *flattened* SIMD version (Figure 7) and watch it take
   Equation 1's max-of-sums steps — the MIMD bound;
5. print both lockstep traces (Figures 6 and 4).

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import BackendConfig
from repro import Engine, evaluate_flattening, format_source, parse_source
from repro.lang import ast
from repro.simd import SIMDTraceRecorder
from repro.transform.parallel import flatten_spmd

F77_SOURCE = """
C The paper's Figure 1: parallel outer loop, irregular inner loop.
PROGRAM example
  INTEGER i, j, k, l(8), x(8, 4)
  k = 8
  DO i = 1, k
    DO j = 1, l(i)
      x(i, j) = i * j
    ENDDO
  ENDDO
END
"""

#: The paper's workload: inner trip counts per outer iteration.
L = np.array([4, 1, 2, 1, 1, 3, 1, 3])
NPROC = 2

#: One Engine serves the whole walkthrough; repeated compiles of the
#: same text are cache hits (see ``ENGINE.stats`` at the end).
ENGINE = Engine()


def is_body(stmt):
    return (
        isinstance(stmt, ast.Assign)
        and isinstance(stmt.target, ast.ArrayRef)
        and stmt.target.name == "x"
    )


def splice_loop(tree, replacement):
    """Replace the outer DO of the main program with new statements."""
    unit = tree.main
    index = next(i for i, s in enumerate(unit.body) if isinstance(s, ast.Do))
    body = unit.body[:index] + replacement + unit.body[index + 1:]
    return ast.SourceFile([ast.Routine("program", unit.name, [], body)])


def run_traced(tree, label):
    recorder = SIMDTraceRecorder(("i", "j"), NPROC, body_predicate=is_body)
    result = ENGINE.compile(tree).run(
        {"l": L.copy()}, statement_hook=recorder.hook, config=BackendConfig(nproc=NPROC)
    )
    steps = result.counters.events["scatter"]
    print(f"--- {label}: {steps} body steps ({result.backend} backend) ---")
    print(recorder.table.format())
    print()
    return result.env["x"].data, steps


def main():
    tree = parse_source(F77_SOURCE)

    # 1. the compiler's view (Section 6)
    loop = next(s for s in tree.main.body if isinstance(s, ast.Do))
    report = evaluate_flattening(loop, assume_min_trips=True)
    print("=== compiler report ===")
    for reason in report.reasons:
        print(" *", reason)
    print(f" => recommended: {report.recommended}, overhead: {report.cost}\n")

    # 2. naive SIMDization (Figure 5) — Equation 2's bound
    naive = ENGINE.compile(
        tree, transform="simdize", width=NPROC, layout="block"
    ).tree
    print("=== derived naive SIMD program (the paper's P4) ===")
    print(format_source(naive))
    # rename the derived induction variable for tracing clarity
    x_naive, naive_steps = run_traced(naive, "naive SIMD (Figure 6 trace)")

    # 3. flattening + SIMDizing (Figure 7) — Equation 1's bound
    flat = splice_loop(
        tree,
        flatten_spmd(
            loop, nproc=NPROC, layout="block", variant="done", assume_min_trips=True
        ),
    )
    print("=== derived flattened SIMD program (the paper's P5) ===")
    print(format_source(flat))
    x_flat, flat_steps = run_traced(flat, "flattened SIMD (Figure 4 trace)")

    assert (x_naive == x_flat).all(), "the transformations changed the result!"
    print(
        f"same result, {naive_steps} steps naive vs {flat_steps} flattened "
        f"({naive_steps / flat_steps:.2f}x) — sum-of-maxima vs max-of-sums."
    )
    stats = ENGINE.stats
    print(
        f"engine cache: {stats.compiles} compile(s), "
        f"{stats.hits} hit(s), {stats.misses} miss(es)"
    )


if __name__ == "__main__":
    main()

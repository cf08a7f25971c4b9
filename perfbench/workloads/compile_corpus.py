"""``compile-corpus``: generated loop nests through every compile layer.

One op is one :class:`repro.fuzz.ProgramGenerator` program compiled on a
cold :class:`repro.Engine` under ``none``, ``flatten`` (auto variant),
``fission``, ``interchange`` and ``coalesce``: parse, dependence graph
of every outer loop, the transform, bytecode lowering, superinstruction
fusion, the bytecode verifier and the lint rules.  Nothing executes in
the timed region.

The op is the whole program, not one transform attempt: about half of
all attempts are fast legality rejections, so a per-attempt percentile
would sit on the boundary between rejected and applied attempts.  The
workload has a single op class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from harness import NULL_TRACER, Sample, layer_medians_ms
from workloads import Workload, compare_env, copy_bindings

from repro import BackendConfig, Engine, format_source, lint_routine, parse_source
from repro.analysis.dep import build_dependence_graph
from repro.fuzz import ProgramGenerator
from repro.lang import ast
from repro.lang.errors import TransformError
from repro.vm import Op as Opcode, compile_program, fuse_code, verify_code

TRANSFORMS = ("none", "flatten", "fission", "interchange", "coalesce")
TIMED_TRANSFORMS = TRANSFORMS[1:]
PROGRAMS = {"full": 120, "smoke": 6}
#: Generated programs per program kept.
POOL = 4
#: Lockstep width of the correctness check's VM runs.
CHECK_NPROC = 4


@dataclass
class Op:
    index: int
    program: object  # repro.fuzz.GeneratedProgram
    cls: str = "program"


class CompileCorpus(Workload):
    name = "compile-corpus"
    classes = {"program": 1.0}
    layer_names = (
        "lang.parse_ms", "analysis.dep_ms",
        *(f"transform.{t}_ms" for t in TIMED_TRANSFORMS),
        *(f"transform.{t}_{kind}" for t in TIMED_TRANSFORMS
          for kind in ("applied", "rejected")),
        "vm.bytecode_ms", "vm.fuse_ms", "vm.verify_ms", "diag.lint_ms",
        "vm.instructions", "vm.fused_instructions",
    )

    def setup(self) -> None:
        # Programs are drawn stratified by source length from a pool of
        # POOL times as many, so the corpus's cost barely moves with the
        # seed.
        generator = ProgramGenerator(seed=self.seed)
        rng = random.Random(f"perfbench/compile-corpus/{self.seed}")
        count = PROGRAMS[self.size]
        pool = sorted((generator.generate(i) for i in range(POOL * count)),
                      key=lambda program: len(program.source))
        chosen = [pool[POOL * k + rng.randrange(POOL)] for k in range(count)]
        rng.shuffle(chosen)
        self.op_list = [Op(i, program) for i, program in enumerate(chosen)]
        # Warm-up: one op end to end, so first-use costs (regex
        # compilation, lazy imports) stay out of the timed region.
        self.run_op(self.op_list[0], NULL_TRACER)
        self._kept: dict[int, dict] = {}
        self._verified: dict[int, dict] = {}

    def run_op(self, op: Op, tracer) -> dict:
        source = op.program.source
        with tracer.span("lang.parse"):
            tree = parse_source(source)
        with tracer.span("analysis.dep"):
            for unit in tree.units:
                for stmt in unit.body:
                    if isinstance(stmt, ast.Do):
                        build_dependence_graph(stmt)
        engine = Engine()
        artifacts = {}
        for transform in TRANSFORMS:
            try:
                with tracer.span(f"transform.{transform}"):
                    program = engine.compile(source, transform=transform)
            except TransformError:
                artifacts[transform] = None
                continue
            transformed = program.tree
            try:
                with tracer.span("vm.bytecode"):
                    code = compile_program(transformed)
            except TransformError:
                code, fused = (), ()  # the routine has no bytecode form
            else:
                with tracer.span("vm.fuse"):
                    fused = fuse_code(code).instructions
                with tracer.span("vm.verify"):
                    verify_code(code)
            with tracer.span("diag.lint"):
                for unit in transformed.units:
                    lint_routine(unit)
            dispatched = sum(1 for i in fused if i.op is not Opcode.NOP)
            artifacts[transform] = (program, len(code), dispatched)
        return artifacts

    def extract(self, op: Op, artifacts: dict) -> dict:
        """Printed form and IR sizes of each artifact.  The first round's
        artifacts are also kept whole for the check's VM runs; later
        rounds keep text only, so memory does not grow with rounds."""
        if op.index not in self._kept:
            self._kept[op.index] = {t: None if a is None else a[0]
                                    for t, a in artifacts.items()}
        return {t: None if a is None else (format_source(a[0].tree), a[1], a[2])
                for t, a in artifacts.items()}

    def check(self, sample: Sample) -> str | None:
        """Each applied transform's VM result against the scalar
        interpreter on the untransformed source, once per program.  Later
        rounds rebuild the same artifacts; they must print identically."""
        op, output = sample.op, sample.output
        if op.index in self._verified:
            if output != self._verified[op.index]:
                return f"program {op.index}: artifacts differ from the first round"
            return None
        generated = op.program
        reference = Engine().compile(generated.source).run(
            copy_bindings(generated.bindings), backend="scalar").env
        for transform, program in self._kept[op.index].items():
            if program is None:
                continue
            backend = "vm" if output[transform][1] else "interpreter"
            result = program.run(copy_bindings(generated.bindings), backend=backend,
                                 config=BackendConfig(nproc=CHECK_NPROC))
            problem = compare_env(generated, reference, result.env)
            if problem:
                return f"program {op.index} {transform}: {problem}"
        self._verified[op.index] = output
        return None

    def fingerprint(self, samples: list[Sample]) -> dict:
        counts = {f"transform.{t}_{kind}": 0 for t in TIMED_TRANSFORMS
                  for kind in ("applied", "rejected")}
        counts["vm.instructions"] = counts["vm.fused_instructions"] = 0
        for sample in samples:
            for transform, artifact in sample.output.items():
                if transform != "none":
                    kind = "rejected" if artifact is None else "applied"
                    counts[f"transform.{transform}_{kind}"] += 1
                if artifact is not None:
                    counts["vm.instructions"] += artifact[1]
                    counts["vm.fused_instructions"] += artifact[2]
        return counts

    def layer_metrics(self, tracer, samples: list[Sample]) -> dict[str, float]:
        names = ("lang.parse", "analysis.dep", "vm.bytecode", "vm.fuse",
                 "vm.verify", "diag.lint")
        medians = layer_medians_ms(tracer, names)
        metrics = {f"{name}_ms": medians[name] for name in names}
        # A cold compile parses the text again inside Engine.compile;
        # the transform's own time is the compile minus this op's parse.
        per_op = tracer.self_times()
        for transform in TIMED_TRANSFORMS:
            costs = [max(0.0, layers.get(f"transform.{transform}", 0.0)
                         - layers["lang.parse"])
                     for layers in per_op.values()]
            metrics[f"transform.{transform}_ms"] = 1e3 * float(np.median(costs))
        metrics.update(self.fingerprint(samples[: len(self.op_list)]))
        return metrics


WORKLOAD = CompileCorpus

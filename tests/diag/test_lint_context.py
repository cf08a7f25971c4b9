"""One ``LintContext`` serves every rule of a routine.

Sharing the statement list, the per-nest flattening report and the
per-loop dependence graph must not change what the rules find, and
must actually share: the flattening evaluation and the graph build run
at most once per loop statement.  A lint that crashes
on a valid program reports ``P003`` on every path.
"""

import glob

import pytest

import repro.analysis.dep.report as dep_report
import repro.diag.rules as rules
from repro import Engine
from repro.analysis.abstract import analyze_routine
from repro.cli import _iter_minif_sources
from repro.diag import RULES, LintContext, Severity, lint_routine, lint_source
from repro.fuzz import ProgramGenerator
from repro.lang import parse_source

#: The tier-1 fuzz smoke campaign's seed and size.
CORPUS_SEED = 20260805
CORPUS_SIZE = 200

KERNEL_SOURCES = [
    source
    for path in sorted(glob.glob("src/repro/kernels/*.py"))
    for source in _iter_minif_sources(path)
]

#: ``x = 1 + 1 + ... + 1`` with 600 terms: valid, compiles, and deeper
#: than the abstract interpreter's recursion can evaluate.
DEEP = "program deep\ninteger x\nx = " + " + ".join(["1"] * 600) + "\nend\n"


@pytest.fixture(scope="module")
def corpus():
    generator = ProgramGenerator(CORPUS_SEED)
    return [program.source for program in generator.programs(CORPUS_SIZE)]


def one_context_per_rule(routine):
    """What ``lint_routine`` reported before rules shared a context."""
    findings = []
    for code in sorted(RULES):
        ctx = LintContext(routine, analyze_routine(routine))
        findings.extend(RULES[code].check(ctx))
    return findings


def assert_sharing_changes_nothing(text):
    for routine in parse_source(text).units:
        shared = lint_routine(routine).diagnostics
        assert shared == one_context_per_rule(routine)


@pytest.mark.parametrize(
    "label,text", KERNEL_SOURCES, ids=[label for label, _ in KERNEL_SOURCES]
)
def test_shared_context_matches_fresh_contexts_on_kernels(label, text):
    assert_sharing_changes_nothing(text)


def test_shared_context_matches_fresh_contexts_on_fuzz_corpus(corpus):
    for text in corpus:
        assert_sharing_changes_nothing(text)


def test_flattening_is_evaluated_once_per_loop(monkeypatch, corpus):
    calls: dict[int, int] = {}
    evaluate = rules.evaluate_flattening

    def counting(stmt, *args, **kwargs):
        calls[id(stmt)] = calls.get(id(stmt), 0) + 1
        return evaluate(stmt, *args, **kwargs)

    monkeypatch.setattr(rules, "evaluate_flattening", counting)
    texts = [text for _, text in KERNEL_SOURCES] + corpus[:50]
    evaluated = 0
    for text in texts:
        for routine in parse_source(text).units:
            calls.clear()
            lint_routine(routine)
            assert max(calls.values(), default=0) <= 1
            evaluated += len(calls)
    assert evaluated > 0


def test_dependence_graph_is_built_once_per_loop(monkeypatch, corpus):
    build = rules.build_dependence_graph

    def fresh_graph(ctx, stmt):
        try:
            return build(stmt)
        except Exception:
            return None

    texts = [text for _, text in KERNEL_SOURCES] + corpus[:50]
    routines = [r for text in texts for r in parse_source(text).units]
    with monkeypatch.context() as patch:
        patch.setattr(LintContext, "graph", fresh_graph, raising=False)
        expected = [lint_routine(r).diagnostics for r in routines]

    calls: dict[int, int] = {}

    def counting(stmt, *args, **kwargs):
        calls[id(stmt)] = calls.get(id(stmt), 0) + 1
        return build(stmt, *args, **kwargs)

    # R003/W104 build through the lint; W101/W103 through the
    # flattening report's parallelism analysis.
    monkeypatch.setattr(rules, "build_dependence_graph", counting)
    monkeypatch.setattr(dep_report, "build_dependence_graph", counting)
    built = 0
    for routine, findings in zip(routines, expected):
        calls.clear()
        assert lint_routine(routine).diagnostics == findings
        assert max(calls.values(), default=0) <= 1
        built += len(calls)
    assert built > 0


def test_statements_are_listed_once():
    routine = parse_source("program p\ninteger x\nx = 1\nx = x + 1\nend\n").main
    ctx = LintContext(routine, analyze_routine(routine))
    assert ctx.statements() is ctx.statements()


class TestLintCrashIsP003:
    @staticmethod
    def assert_one_p003(findings):
        assert [d.code for d in findings] == ["P003"]
        [finding] = findings
        assert finding.severity is Severity.WARNING
        assert finding.routine == "deep"
        assert "lint of routine 'deep' failed" in finding.message

    def test_lint_source(self):
        self.assert_one_p003(lint_source(DEEP).diagnostics)

    def test_compiled_program_diagnostics(self):
        program = Engine().compile(DEEP)
        findings = [d for d in program.diagnostics() if d.code.startswith("P")]
        self.assert_one_p003(findings)

    def test_lint_routine(self):
        self.assert_one_p003(lint_routine(parse_source(DEEP).main).diagnostics)

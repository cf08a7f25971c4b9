"""Loop-nest dependence graph construction.

:func:`build_dependence_graph` walks one outer counted loop (a ``DO``
or ``FORALL``), normalizes every array subscript into an affine form
over *all* enclosing induction variables (see
:mod:`repro.analysis.dep.affine`), runs the test ladder of
:mod:`repro.analysis.dep.tests` on every ordered access pair, and
returns a :class:`DependenceGraph` of flow/anti/output edges annotated
with direction and distance vectors.

The walk is a forward symbolic execution over scalar values:

* recognized **induction variables** (a single top-level ``k = k ± c``
  update in a unit-stride loop body) get the closed form
  ``k0 + c*(i - lo)`` so subscripts like ``x(k)`` become affine;
* ``IF``/``WHERE`` branches are walked on copies of the environment
  and merged — a scalar the branches disagree on becomes a fresh
  opaque symbol tagged with the current loop depth;
* ``WHILE``/``DO WHILE`` bodies kill every scalar they assign, and
  accesses inside them are tagged with a *region* so the pair solver
  knows their relative execution order is unknown;
* ``GOTO`` anywhere in the nest degrades every subscript to unknown
  (structurize first for precision).

Scalars assigned in the nest additionally contribute conservative
all-``'*'`` edges between their accesses; these are flagged
``privatizable`` / ``reduction`` (per the classic liveness argument)
so parallelism queries can discount them while fission still honors
them as statement-ordering ties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

from ...lang import ast
from ..cfg import build_cfg
from ..dataflow import live_variables, stmt_defs
from .affine import AffineExpr, parse_affine_expr
from .tests import LevelInfo, solve_pair


@dataclass(frozen=True)
class Access:
    """One array-element or scalar access inside the nest."""

    name: str
    is_write: bool
    #: Affine subscripts, one per dimension (None = non-affine); None
    #: for the whole tuple when the access is a scalar access.
    subs: tuple[AffineExpr | None, ...] | None
    #: Enclosing counted loops, outermost first (level 1 = the nest root).
    levels: tuple[LevelInfo, ...]
    #: Walk-order sequence number (approximates execution order).
    seq: int
    #: Index of the enclosing top-level statement of the nest body.
    top_index: int
    #: Enclosing WHILE-region ids (execution order unknown inside).
    regions: frozenset[int]
    loc: object = field(compare=False, default=None)
    #: True when a subscript contains another array reference.
    indirect: bool = False

    @property
    def is_scalar(self) -> bool:
        return self.subs is None

    def describe(self) -> str:
        kind = "write" if self.is_write else "read"
        if self.subs is None:
            return f"{kind} {self.name}"
        subs = ", ".join("?" if s is None else str(s) for s in self.subs)
        return f"{kind} {self.name}({subs})"


@dataclass(frozen=True)
class DependenceEdge:
    """A may-dependence from ``src`` to ``dst`` with one direction vector.

    ``vector`` has one entry per loop level the two accesses share
    (outermost first); ``distance`` gives the exact iteration distance
    at each level where the subscripts pin it, None elsewhere.
    """

    src: Access
    dst: Access
    kind: str  # "flow" | "anti" | "output"
    vector: tuple[str, ...]
    distance: tuple[int | None, ...]
    scalar: bool = False
    privatizable: bool = False
    reduction: bool = False
    #: True when the tests had nothing to work with (indirect or
    #: otherwise non-affine subscripts, rank mismatch).
    unknown: bool = False

    @property
    def ignorable(self) -> bool:
        """Edges parallelism queries may discount (handled by
        privatization or reduction support, not by serialization)."""
        return self.scalar and (self.privatizable or self.reduction)

    def may_carry(self, level: int) -> bool:
        """Can this dependence cross iterations of loop ``level``?"""
        if level > len(self.vector):
            return False
        if any(entry not in ("=", "*") for entry in self.vector[: level - 1]):
            return False
        return self.vector[level - 1] in ("<", "*")

    @property
    def carried_level(self) -> int | None:
        """Outermost level whose iterations this dependence may cross."""
        for pos, entry in enumerate(self.vector):
            if entry in ("<", "*"):
                return pos + 1
            if entry == ">":
                return None
        return None

    def describe(self) -> str:
        vec = "(" + ", ".join(self.vector) + ")"
        dist = "(" + ", ".join(
            "?" if d is None else str(d) for d in self.distance
        ) + ")"
        return (
            f"{self.kind} {self.src.describe()} -> {self.dst.describe()} "
            f"direction {vec} distance {dist}"
        )


@dataclass
class DependenceGraph:
    """Queryable dependence summary of one loop nest."""

    loop: ast.Do | ast.Forall
    accesses: list[Access]
    edges: list[DependenceEdge]
    #: Number of top-level statements in the nest body.
    n_top: int
    #: Loop depth of the deepest access path.
    depth: int
    #: Scalars whose value escapes into a CALL (analysis boundary).
    call_touched: frozenset[str] = frozenset()
    #: True when a GOTO degraded every subscript to unknown.
    irregular: bool = False
    #: Names assigned in the nest body, and names live on entry to it.
    assigned: frozenset[str] = frozenset()
    live_in: frozenset[str] = frozenset()
    #: Scalars with an ``s = s + e`` / ``s = s * e`` update in the body.
    accumulators: frozenset[str] = frozenset()

    def is_parallel(self, level: int = 1) -> bool:
        """No non-ignorable dependence is carried by loop ``level``."""
        return not any(
            edge.may_carry(level)
            for edge in self.edges
            if not edge.ignorable
        )

    def carried_edges(self, level: int = 1) -> list[DependenceEdge]:
        return [e for e in self.edges if e.may_carry(level)]

    def can_interchange(self, l1: int, l2: int) -> bool:
        """Is swapping loops ``l1`` and ``l2`` (``l1 < l2``) legal?

        Interchange reorders the iteration space; it is illegal when a
        dependence carried at ``l1`` points backward at ``l2`` — the
        swap would make the sink run before its source (the classic
        ``(<, >)`` direction-vector test).
        """
        for edge in self.edges:
            if edge.ignorable:
                continue
            if len(edge.vector) < l2:
                continue
            v = edge.vector
            if any(entry not in ("=", "*") for entry in v[: l1 - 1]):
                continue
            if v[l1 - 1] in ("<", "*") and v[l2 - 1] in (">", "*"):
                return False
        return True

    def interchange_witness(
        self, l1: int, l2: int
    ) -> DependenceEdge | None:
        """The first edge proving :meth:`can_interchange` false."""
        for edge in self.edges:
            if edge.ignorable or len(edge.vector) < l2:
                continue
            v = edge.vector
            if any(entry not in ("=", "*") for entry in v[: l1 - 1]):
                continue
            if v[l1 - 1] in ("<", "*") and v[l2 - 1] in (">", "*"):
                return edge
        return None

    def fission_partitions(self) -> list[list[int]]:
        """Partition the nest body for loop fission.

        Returns groups of top-level statement indices: the strongly
        connected components of the statement-level dependence digraph
        (every edge, including privatizable scalar ties — distribution
        must keep a def with its uses), in a topological order that
        favors original statement order.  Statements in one group must
        stay in one loop; each group becomes its own loop.
        """
        n = self.n_top
        succs: list[set[int]] = [set() for _ in range(n)]
        for edge in self.edges:
            a, b = edge.src.top_index, edge.dst.top_index
            if a == b:
                continue
            # A loop-independent ('=') or forward-carried edge means a
            # source instance executes before the sink instance; after
            # distribution *every* source instance runs before every
            # sink instance only if the source statement's loop comes
            # first.  Vectors with a '*' entry may also run backward,
            # constraining both orders (forcing a shared component).
            succs[a].add(b)
            if "*" in edge.vector:
                succs[b].add(a)
        comp = _scc(succs)
        n_comp = max(comp) + 1 if comp else 0
        members: list[list[int]] = [[] for _ in range(n_comp)]
        for idx, c in enumerate(comp):
            members[c].append(idx)
        # condensation + Kahn topo, preferring small original indices
        csuccs: list[set[int]] = [set() for _ in range(n_comp)]
        indeg = [0] * n_comp
        for a in range(n):
            for b in succs[a]:
                ca, cb = comp[a], comp[b]
                if ca != cb and cb not in csuccs[ca]:
                    csuccs[ca].add(cb)
                    indeg[cb] += 1
        heap = [
            (min(members[c]), c) for c in range(n_comp) if indeg[c] == 0
        ]
        heap.sort()
        order: list[list[int]] = []
        while heap:
            _, c = heappop(heap)
            order.append(sorted(members[c]))
            for nxt in csuccs[c]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    heappush(heap, (min(members[nxt]), nxt))
        return order


def _scc(succs: list[set[int]]) -> list[int]:
    """Iterative Tarjan; returns the component index of each node."""
    n = len(succs)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp = [-1] * n
    counter = 0
    n_comp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, object]] = [(root, None)]
        while work:
            node, it = work[-1]
            if it is None:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
                it = iter(sorted(succs[node]))
                work[-1] = (node, it)
            advanced = False
            for succ in it:
                if index[succ] == -1:
                    work.append((succ, None))
                    advanced = True
                    break
                if on_stack[succ]:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    comp[member] = n_comp
                    if member == node:
                        break
                n_comp += 1
    return comp


# ---------------------------------------------------------------------------
# Collection: symbolic walk of the nest
# ---------------------------------------------------------------------------


def _const_of(expr: AffineExpr | None) -> int | None:
    if expr is not None and expr.is_constant:
        return expr.const
    return None


class _Collector:
    def __init__(self, loop: ast.Do | ast.Forall) -> None:
        self.loop = loop
        self.accesses: list[Access] = []
        self.symbol_varies: dict[str, int] = {}
        self.levels_by_name: dict[str, LevelInfo] = {}
        self.call_touched: set[str] = set()
        self.env: dict[str, AffineExpr | None] = {}
        self.levels: list[LevelInfo] = []
        self.regions: list[int] = []
        self.seq = 0
        self.top_index = 0
        self._fresh = 0
        self._region_counter = 0
        # One walk classifies names: anything ever subscripted is an
        # array; scalars assigned anywhere in the nest get scalar
        # accesses; a GOTO anywhere makes the nest irregular.
        self.irregular = False
        self.arrays: set[str] = set()
        self.tracked: set[str] = set()
        for node in ast.walk(loop):
            if isinstance(node, ast.ArrayRef):
                self.arrays.add(node.name)
            elif isinstance(node, ast.Goto):
                self.irregular = True
            elif isinstance(node, ast.Assign) and isinstance(
                node.target, ast.Var
            ):
                self.tracked.add(node.target.name)
            elif isinstance(node, (ast.Do, ast.Forall)):
                self.tracked.add(node.var)
            elif isinstance(node, ast.CallStmt):
                for arg in node.args:
                    if isinstance(arg, ast.Var):
                        self.tracked.add(arg.name)
        self.tracked -= self.arrays
        self.tracked.discard(loop.var)

    # -- helpers -------------------------------------------------------------

    def _fresh_symbol(self, hint: str, varies_below: int) -> AffineExpr:
        self._fresh += 1
        name = f"{hint}%{self._fresh}"
        self.symbol_varies[name] = varies_below
        return AffineExpr.variable(name)

    def _next_seq(self) -> int:
        self.seq += 1
        return self.seq

    def _parse(self, expr: ast.Expr) -> AffineExpr | None:
        if self.irregular:
            return None
        return parse_affine_expr(expr, self.env)

    def _record_array(
        self, ref: ast.ArrayRef, is_write: bool, seq: int
    ) -> None:
        subs: list[AffineExpr | None] = []
        indirect = False
        for sub in ref.subs:
            if isinstance(sub, ast.Slice):
                subs.append(None)
                continue
            if any(
                isinstance(node, ast.ArrayRef) for node in ast.walk(sub)
            ):
                indirect = True
                subs.append(None)
                continue
            subs.append(self._parse(sub))
        self.accesses.append(
            Access(
                name=ref.name,
                is_write=is_write,
                subs=tuple(subs),
                levels=tuple(self.levels),
                seq=seq,
                top_index=self.top_index,
                regions=frozenset(self.regions),
                loc=ref.loc,
                indirect=indirect,
            )
        )

    def _record_scalar(
        self, name: str, is_write: bool, seq: int, loc: object
    ) -> None:
        if name not in self.tracked:
            return
        self.accesses.append(
            Access(
                name=name,
                is_write=is_write,
                subs=None,
                levels=tuple(self.levels),
                seq=seq,
                top_index=self.top_index,
                regions=frozenset(self.regions),
                loc=loc,
            )
        )

    def _record_reads(self, expr: ast.Expr, seq: int) -> None:
        """Record array reads and tracked-scalar reads in ``expr``."""
        active_ivs = {level.var for level in self.levels}
        for node in ast.walk(expr):
            if isinstance(node, ast.ArrayRef):
                self._record_array(node, is_write=False, seq=seq)
            elif isinstance(node, ast.Var):
                if node.name in active_ivs:
                    continue  # precise via the affine form
                self._record_scalar(node.name, False, seq, node.loc)

    # -- induction recognition ----------------------------------------------

    @staticmethod
    def _write_counts(body: list[ast.Stmt]) -> dict[str, int]:
        """Scalar writes in ``body`` by name: 1 per assignment, 2 per
        loop header or CALL argument (neither can be an induction)."""
        writes: dict[str, int] = {}
        for node in ast.walk_body(body):
            if isinstance(node, ast.Assign) and isinstance(
                node.target, ast.Var
            ):
                name = node.target.name
                writes[name] = writes.get(name, 0) + 1
            elif isinstance(node, (ast.Do, ast.Forall)):
                writes[node.var] = writes.get(node.var, 0) + 2
            elif isinstance(node, ast.CallStmt):
                for arg in node.args:
                    if isinstance(arg, ast.Var):
                        writes[arg.name] = writes.get(arg.name, 0) + 2
        return writes

    def _find_inductions(
        self, body: list[ast.Stmt], writes: dict[str, int]
    ) -> dict[str, tuple[int, ast.Assign]]:
        """Scalars with exactly one write in ``body`` (``writes`` is
        :meth:`_write_counts` of it), a top-level ``k = k ± c`` with
        constant ``c``; map name -> (delta, stmt)."""
        out: dict[str, tuple[int, ast.Assign]] = {}
        for stmt in body:
            if not (
                isinstance(stmt, ast.Assign)
                and isinstance(stmt.target, ast.Var)
            ):
                continue
            name = stmt.target.name
            if name not in self.tracked or writes.get(name) != 1:
                continue
            value = stmt.value
            if not isinstance(value, ast.BinOp):
                continue
            delta: int | None = None
            if value.op == "+":
                if (
                    isinstance(value.left, ast.Var)
                    and value.left.name == name
                ):
                    delta = _const_of(self._parse(value.right))
                elif (
                    isinstance(value.right, ast.Var)
                    and value.right.name == name
                ):
                    delta = _const_of(self._parse(value.left))
            elif value.op == "-":
                if (
                    isinstance(value.left, ast.Var)
                    and value.left.name == name
                ):
                    inc = _const_of(self._parse(value.right))
                    delta = None if inc is None else -inc
            if delta is not None:
                out[name] = (delta, stmt)
        return out

    # -- statement walk ------------------------------------------------------

    def walk_loop(self) -> None:
        loop = self.loop
        self.env[loop.var] = None  # replaced on level entry
        self._enter_counted(loop, top_level=True)

    def _enter_counted(
        self, loop: ast.Do | ast.Forall, top_level: bool = False
    ) -> None:
        seq = self._next_seq()
        stride: int | None = 1
        if isinstance(loop, ast.Do) and loop.stride is not None:
            stride = _const_of(self._parse(loop.stride))
        lo_expr = self._parse(loop.lo)
        hi_expr = self._parse(loop.hi)
        self._record_reads(loop.lo, seq)
        self._record_reads(loop.hi, seq)
        if isinstance(loop, ast.Do) and loop.stride is not None:
            self._record_reads(loop.stride, seq)
        if isinstance(loop, ast.Forall) and loop.mask is not None:
            self._record_reads(loop.mask, seq)

        lo_c = _const_of(lo_expr)
        hi_c = _const_of(hi_expr)
        if stride is None or stride == 0:
            order, lo_bound, hi_bound = 0, None, None
        elif stride > 0:
            order, lo_bound, hi_bound = 1, lo_c, hi_c
        else:
            order, lo_bound, hi_bound = -1, hi_c, lo_c

        unique = f"{loop.var}@L{seq}"
        level = LevelInfo(
            var=loop.var,
            name=unique,
            lo=lo_bound,
            hi=hi_bound,
            order=order,
        )
        depth = len(self.levels)  # depth of *enclosing* loops
        self.levels.append(level)
        self.levels_by_name[unique] = level
        saved_iv = self.env.get(loop.var)
        self.env[loop.var] = AffineExpr.variable(unique)

        body = loop.body
        writes = self._write_counts(body)
        inductions = (
            {} if self.irregular else self._find_inductions(body, writes)
        )
        bases: dict[str, AffineExpr] = {}
        for name in sorted(writes):
            if name == loop.var or name not in self.tracked:
                continue
            info = inductions.get(name)
            if (
                info is not None
                and stride == 1
                and lo_expr is not None
            ):
                prev = self.env.get(name)
                if isinstance(prev, AffineExpr):
                    base = prev
                else:
                    base = self._fresh_symbol(name, depth)
                bases[name] = base
                iv = AffineExpr.variable(unique)
                self.env[name] = base + (iv - lo_expr).scale(info[0])
            else:
                # Value at iteration entry: unknown but a fixed
                # function of the enclosing iteration point.
                self.env[name] = self._fresh_symbol(name, depth + 1)

        self._walk_body(body, top_level=top_level)

        self.levels.pop()
        self.env[loop.var] = saved_iv
        # Values after the loop: only constant-trip closed forms survive.
        trips = (
            hi_c - lo_c + 1
            if (lo_c is not None and hi_c is not None and stride == 1)
            else None
        )
        for name in sorted(writes):
            if name == loop.var or name not in self.tracked:
                continue
            info = inductions.get(name)
            if info is not None and name in bases and trips is not None:
                self.env[name] = bases[name] + AffineExpr.constant(
                    info[0] * max(0, trips)
                )
            else:
                self.env[name] = None
        if isinstance(loop, ast.Do):
            if trips is not None:
                self.env[loop.var] = AffineExpr.constant(
                    lo_c + max(0, trips)
                )
            else:
                self.env[loop.var] = None

    def _walk_body(
        self, body: list[ast.Stmt], top_level: bool = False
    ) -> None:
        for idx, stmt in enumerate(body):
            if top_level:
                self.top_index = idx
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Assign):
            seq = self._next_seq()
            self._record_reads(stmt.value, seq)
            if isinstance(stmt.target, ast.ArrayRef):
                for sub in stmt.target.subs:
                    if not isinstance(sub, ast.Slice):
                        self._record_reads(sub, seq)
                self._record_array(stmt.target, is_write=True, seq=seq)
            elif isinstance(stmt.target, ast.Var):
                name = stmt.target.name
                active_ivs = {level.var for level in self.levels}
                if name not in active_ivs:
                    self._record_scalar(name, True, seq, stmt.loc)
                if name in self.env or name in self.tracked:
                    self.env[name] = self._parse(stmt.value)
        elif isinstance(stmt, (ast.Do, ast.Forall)):
            # The loop header writes its variable (its value persists
            # after the loop); record unless shadowing an active iv.
            active_ivs = {level.var for level in self.levels}
            if stmt.var not in active_ivs:
                self._record_scalar(
                    stmt.var, True, self.seq + 1, stmt.loc
                )
            self._enter_counted(stmt)
        elif isinstance(stmt, (ast.If, ast.Where)):
            seq = self._next_seq()
            cond = stmt.cond if isinstance(stmt, ast.If) else stmt.mask
            self._record_reads(cond, seq)
            before = dict(self.env)
            self._walk_body(stmt.then_body)
            after_then = self.env
            self.env = dict(before)
            self._walk_body(stmt.else_body)
            after_else = self.env
            merged: dict[str, AffineExpr | None] = {}
            for name in set(after_then) | set(after_else):
                a = after_then.get(name)
                b = after_else.get(name)
                if a == b:
                    merged[name] = a
                elif a is None or b is None:
                    merged[name] = None
                else:
                    merged[name] = self._fresh_symbol(
                        name, len(self.levels)
                    )
            self.env = merged
        elif isinstance(stmt, (ast.While, ast.DoWhile)):
            seq = self._next_seq()
            self._record_reads(stmt.cond, seq)
            assigned = self._write_counts(stmt.body)
            for name in assigned:
                if name in self.tracked:
                    self.env[name] = None
            self._region_counter += 1
            self.regions.append(self._region_counter)
            self._walk_body(stmt.body)
            self.regions.pop()
            for name in assigned:
                if name in self.tracked:
                    self.env[name] = None
        elif isinstance(stmt, ast.CallStmt):
            seq = self._next_seq()
            for arg in stmt.args:
                self._record_reads(arg, seq)
                if isinstance(arg, ast.Var):
                    self.call_touched.add(arg.name)
                    self._record_scalar(arg.name, True, seq, stmt.loc)
                    if arg.name in self.env or arg.name in self.tracked:
                        self.env[arg.name] = None
        elif isinstance(stmt, ast.Goto):
            # Degraded mode already turned off subscript parsing; the
            # jump may also re-execute anything, so drop all values.
            self._next_seq()
            for name in list(self.env):
                self.env[name] = None
        else:
            # CONTINUE / EXIT / CYCLE / RETURN / STOP / decls: either
            # no data effects, or (EXIT/CYCLE) early exits that cannot
            # invalidate values seen by statements that do execute.
            self._next_seq()


# ---------------------------------------------------------------------------
# Edge synthesis
# ---------------------------------------------------------------------------


def _edge_kind(src: Access, dst: Access) -> str:
    if src.is_write and dst.is_write:
        return "output"
    if src.is_write:
        return "flow"
    return "anti"


def _common_levels(a: Access, b: Access) -> tuple[LevelInfo, ...]:
    common: list[LevelInfo] = []
    for la, lb in zip(a.levels, b.levels):
        if la.name != lb.name:
            break
        common.append(la)
    return tuple(common)


def _scalar_summary(
    body: list[ast.Stmt],
) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """(assigned, live at entry, accumulators) names of a nest body,
    the inputs of the liveness argument for privatization/reductions."""
    cfg = build_cfg(body)
    liveness = live_variables(cfg)
    assigned: set[str] = set()
    for node in cfg.statements():
        assigned |= stmt_defs(node.stmt)
    live_at_entry: set[str] = set()
    for succ in cfg.nodes[cfg.ENTRY].succs:
        live_at_entry |= liveness.live_in[succ]
    accumulators = {
        node.target.name
        for node in ast.walk_body(body)
        if isinstance(node, ast.Assign)
        and isinstance(node.target, ast.Var)
        and isinstance(node.value, ast.BinOp)
        and node.value.op in ("+", "*")
        and node.target in (node.value.left, node.value.right)
    }
    return frozenset(assigned), frozenset(live_at_entry), frozenset(accumulators)


def build_dependence_graph(
    loop: ast.Do | ast.Forall,
) -> DependenceGraph:
    """Analyze one outer counted loop into a :class:`DependenceGraph`."""
    collector = _Collector(loop)
    collector.walk_loop()
    accesses = collector.accesses
    edges: list[DependenceEdge] = []

    assigned, live_in, accumulators = _scalar_summary(loop.body)
    scalars = assigned - collector.arrays - {loop.var}
    privatizable = scalars - live_in
    reductions = scalars & live_in & accumulators

    by_name: dict[str, list[Access]] = {}
    for access in accesses:
        by_name.setdefault(access.name, []).append(access)

    for name in sorted(by_name):
        group = by_name[name]
        if not any(a.is_write for a in group):
            continue
        scalar = group[0].is_scalar
        for src in group:
            for dst in group:
                if not (src.is_write or dst.is_write):
                    continue
                common = _common_levels(src, dst)
                if not common:
                    continue
                shared_region = bool(src.regions & dst.regions)
                if src is dst:
                    if not src.is_write:
                        continue
                    keep_equal = False
                elif scalar:
                    keep_equal = True
                else:
                    keep_equal = src.seq < dst.seq or shared_region
                if scalar:
                    # Conservative all-'*' edge; classification lets
                    # queries discount private temps and reductions.
                    if src is dst:
                        vector: tuple[str, ...] = ("<",) + ("*",) * (
                            len(common) - 1
                        )
                    else:
                        vector = ("*",) * len(common)
                    edges.append(
                        DependenceEdge(
                            src=src,
                            dst=dst,
                            kind=_edge_kind(src, dst),
                            vector=vector,
                            distance=(None,) * len(common),
                            scalar=True,
                            privatizable=name in privatizable,
                            reduction=name in reductions,
                        )
                    )
                    continue
                src_ivs = frozenset(
                    level.name for level in src.levels
                )
                solutions = solve_pair(
                    src.subs,
                    dst.subs,
                    common,
                    collector.levels_by_name,
                    src_ivs,
                    collector.symbol_varies,
                    keep_equal,
                )
                if solutions is None:
                    continue
                unknown = (
                    src.indirect
                    or dst.indirect
                    or any(s is None for s in src.subs)
                    or any(s is None for s in dst.subs)
                    or len(src.subs) != len(dst.subs)
                )
                for vector, distance in solutions:
                    edges.append(
                        DependenceEdge(
                            src=src,
                            dst=dst,
                            kind=_edge_kind(src, dst),
                            vector=vector,
                            distance=distance,
                            unknown=unknown,
                        )
                    )

    return DependenceGraph(
        loop=loop,
        accesses=accesses,
        edges=edges,
        n_top=len(loop.body),
        depth=max((len(a.levels) for a in accesses), default=1),
        call_touched=frozenset(collector.call_touched),
        irregular=collector.irregular,
        assigned=assigned,
        live_in=live_in,
        accumulators=accumulators,
    )

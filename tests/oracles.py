"""Independent brute-force oracles used to cross-check the library.

Everything here is written from the definitions, with no shortcuts: maps are
enumerated exhaustively, LP optima are recomputed from basic solutions, and
decompositions are enumerated in canonical form.  Slow by design; only run
at small sizes.
"""

from __future__ import annotations

import itertools
import re
import time
from fractions import Fraction

from typing import Mapping, Optional, Sequence

from spjopt import (
    Hypergraph,
    KeySet,
    OpenStructure,
    Structure,
    check_tree_decomposition,
    color_number,
    eliminate_fds,
    optimal_cwidth,
    satisfies_keys,
)
from spjopt.errors import PlanSyntaxError, WellBehavedError
from spjopt.plans import (
    EvalTrace,
    Join,
    Plan,
    Project,
    Select,
    TraceEntry,
    _column_classes,
    _select_rows,
    arity_of,
    print_plan,
    subplans,
    validate_plan,
)
from spjopt.simplex import LpResult
from spjopt.synthesis import _assemble_plan


# ---------------------------------------------------------------------------
# Homomorphisms by exhaustive enumeration
# ---------------------------------------------------------------------------


def brute_homs(src: Structure, dst: Structure):
    """All homomorphisms src -> dst, as dicts, by filtering every map."""
    assert src.signature == dst.signature
    out = []
    src_elems = list(src.universe)
    atoms = list(src.atoms())
    for name in src.signature.symbols():
        if src.signature.arity(name) == 0 and src.relations[name] and not dst.relations[name]:
            return []
    if not src_elems:
        return [{}]
    for values in itertools.product(dst.universe, repeat=len(src_elems)):
        h = dict(zip(src_elems, values))
        if all(tuple(h[e] for e in row) in dst.relations[name] for name, row in atoms):
            out.append(h)
    return out


def brute_homs_relation(src: Structure, out_tuple, data: Structure):
    return frozenset(
        tuple(h[e] for e in out_tuple) for h in brute_homs(src, data)
    )


def brute_open_hom_exists(a: OpenStructure, b: OpenStructure) -> bool:
    return any(
        tuple(h[e] for e in a.tuple) == b.tuple
        for h in brute_homs(a.structure, b.structure)
    )


def has_proper_retraction(aug: Structure) -> bool:
    """Exhaustive: is there an idempotent non-surjective endomorphism?"""
    for h in brute_homs(aug, aug):
        if len(set(h.values())) < len(aug.universe) and all(h[h[x]] == h[x] for x in h):
            return True
    return False


# ---------------------------------------------------------------------------
# Chase oracles: random step order, and the stepwise deterministic chase
# ---------------------------------------------------------------------------


def random_chase(value, keys: KeySet, rng):
    """Chase with a randomized step order; returns the fixpoint only."""
    is_open = isinstance(value, OpenStructure)
    struct = value.structure if is_open else value
    merge = {e: e for e in struct.universe}
    current = struct
    while True:
        violations = []
        for name in current.signature.symbols():
            for pos in keys.for_relation(name):
                idx = sorted(p - 1 for p in pos)
                rows = sorted(current.relations[name])
                for r1, r2 in itertools.combinations(rows, 2):
                    if tuple(r1[i] for i in idx) == tuple(r2[i] for i in idx):
                        for i in range(len(r1)):
                            if i not in idx and r1[i] != r2[i]:
                                violations.append((r1[i], r2[i]))
        if not violations:
            break
        x, y = violations[rng.randrange(len(violations))]
        if rng.random() < 0.5:
            x, y = y, x
        current = current.apply_map({x: y})
        for e, rep in merge.items():
            if rep == x:
                merge[e] = y
    if is_open:
        return OpenStructure(current, tuple(merge[e] for e in value.tuple))
    return current


def _first_violation(struct: Structure, keys: KeySet):
    """First chase step (x -> smaller representative) in deterministic order:
    relations by name, tuples sorted, positions left to right."""
    for name in struct.signature.symbols():
        positions = keys.for_relation(name)
        if not positions:
            continue
        rows = sorted(struct.relations[name])
        for pos in positions:
            idx = sorted(p - 1 for p in pos)
            groups = {}
            for row in rows:
                k = tuple(row[i] for i in idx)
                other = groups.get(k)
                if other is not None and other != row:
                    for i in range(len(row)):
                        if i not in idx and other[i] != row[i]:
                            a, b = other[i], row[i]
                            return (max(a, b), min(a, b))
                else:
                    groups[k] = row
    return None


def stepwise_chase(value, keys: KeySet):
    """The chase one step at a time: merge the larger element of the first
    violation into the smaller, rebuild the structure, rescan.  Returns
    (fixpoint, merge map) like ``spjopt.chase``."""
    is_open = isinstance(value, OpenStructure)
    struct = value.structure if is_open else value
    merge = {e: e for e in struct.universe}
    current = struct
    while True:
        step = _first_violation(current, keys)
        if step is None:
            break
        src, dst = step
        current = current.apply_map({src: dst})
        for e, rep in merge.items():
            if rep == src:
                merge[e] = dst
    if is_open:
        return OpenStructure(current, tuple(merge[e] for e in value.tuple)), merge
    return current, merge


# ---------------------------------------------------------------------------
# Recursive homomorphism search
# ---------------------------------------------------------------------------


class RecursiveHomSearch:
    """Backtracking search with forward checking, one recursion level per
    source element and a copy of every candidate set per level.

    Same variable order (smallest candidate set, then id) and value order
    (sorted) as ``spjopt.structures._HomSearch``, so the two must return the
    same maps.  Recursion depth grows with the source universe: small
    inputs only.
    """

    def __init__(self, src: Structure, dst: Structure, pinned: Mapping[int, int]):
        assert src.signature == dst.signature
        self.src = src
        self.dst = dst
        self.consistent = True
        for name in src.signature.symbols():
            if src.signature.arity(name) == 0:
                if src.relations[name] and not dst.relations[name]:
                    self.consistent = False
        self.atoms = list(src.atoms())
        self.atoms_of = {v: [] for v in src.universe}
        for idx, (_, row) in enumerate(self.atoms):
            for v in set(row):
                self.atoms_of[v].append(idx)
        cand = {}
        for v in src.universe:
            allowed = set(dst.universe)
            for idx in self.atoms_of[v]:
                name, row = self.atoms[idx]
                for pos, e in enumerate(row):
                    if e == v:
                        allowed &= {t[pos] for t in dst.relations[name]}
            cand[v] = allowed
        for v, val in pinned.items():
            if val not in cand.get(v, ()):
                self.consistent = False
                break
            cand[v] = {val}
        self.initial = cand

    def _propagate(self, cand, assigned, var) -> bool:
        for idx in self.atoms_of[var]:
            name, row = self.atoms[idx]
            rows = None
            for pos, e in enumerate(row):
                if e in assigned:
                    match = tuple(t for t in sorted(self.dst.relations[name]) if t[pos] == assigned[e])
                    rows = match if rows is None else tuple(t for t in rows if t[pos] == assigned[e])
            if rows is None:
                rows = tuple(sorted(self.dst.relations[name]))
            if not rows:
                return False
            for pos, e in enumerate(row):
                if e not in assigned:
                    cand[e] = cand[e] & {t[pos] for t in rows}
                    if not cand[e]:
                        return False
        return True

    def _extend(self, cand, assigned, order_pool, injective=False):
        todo = [v for v in order_pool if v not in assigned]
        if not todo:
            return dict(assigned)
        var = min(todo, key=lambda v: (len(cand[v]), v))
        used = set(assigned.values()) if injective else ()
        for val in sorted(cand[var]):
            if injective and val in used:
                continue
            new_cand = {v: set(s) for v, s in cand.items()}
            new_cand[var] = {val}
            assigned[var] = val
            if self._propagate(new_cand, assigned, var):
                res = self._extend(new_cand, assigned, order_pool, injective)
                if res is not None:
                    return res
            del assigned[var]
        return None

    def _start(self):
        cand = {v: set(s) for v, s in self.initial.items()}
        assigned = {v: next(iter(s)) for v, s in self.initial.items() if len(s) == 1}
        for v in list(assigned):
            if not self._propagate(cand, assigned, v):
                return None
        return cand, assigned

    def first(self, injective: bool = False) -> Optional[dict]:
        if not self.consistent:
            return None
        start = self._start()
        if start is None:
            return None
        cand, assigned = start
        if injective and len(set(assigned.values())) != len(assigned):
            return None
        return self._extend(cand, assigned, self.src.universe, injective)

    def images(self, out_vars: Sequence[int]) -> set:
        result = set()
        if not self.consistent:
            return result
        start = self._start()
        if start is None:
            return result
        distinct = sorted(set(out_vars))

        def rec(cand, assigned):
            todo = [v for v in distinct if v not in assigned]
            if not todo:
                completion = self._extend(
                    {v: set(s) for v, s in cand.items()}, dict(assigned), self.src.universe
                )
                if completion is not None:
                    result.add(tuple(assigned[v] for v in out_vars))
                return
            var = min(todo, key=lambda v: (len(cand[v]), v))
            for val in sorted(cand[var]):
                new_cand = {v: set(s) for v, s in cand.items()}
                new_cand[var] = {val}
                assigned[var] = val
                if self._propagate(new_cand, assigned, var):
                    rec(new_cand, assigned)
                del assigned[var]

        rec(*start)
        return result


def recursive_homs_relation(src: Structure, out_tuple, data: Structure):
    """homs(A, a, D) through the recursive search."""
    return frozenset(RecursiveHomSearch(src, data, {}).images(tuple(out_tuple)))


# ---------------------------------------------------------------------------
# Plans: character-loop tokenizer, per-occurrence check and evaluation
# ---------------------------------------------------------------------------


def char_loop_tokens(text: str) -> list[tuple[str, str, int, int]]:
    """Plan tokens as (kind, value, line, column), one character at a time;
    raises PlanSyntaxError at the first bad token."""
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif c in "()":
            tokens.append((c, c, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < len(text) and text[j] not in " \t\r\n();":
                j += 1
            word = text[i:j]
            kind = "int" if re.fullmatch(r"-?[0-9]+", word) else "name"
            if kind == "name" and not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", word):
                raise PlanSyntaxError(f"bad token {word!r}", line, col)
            tokens.append((kind, word, line, col))
            col += j - i
            i = j
    return tokens


def _join_is_well_behaved_per_occurrence(join: Join, signature, strict_theta: bool) -> bool:
    arities = [arity_of(c, signature) for c in join.children]
    m1 = arities[0]
    s = sum(arities)
    if strict_theta:
        def equated(i, j):
            return i == j or (i, j) in join.theta or (j, i) in join.theta
    else:
        classes = _column_classes(join.theta, s)

        def equated(i, j):
            return classes[i] == classes[j]

    base = list(range(1, m1 + 1))
    for k in range(1, s + 1):
        if all(
            any(equated(i, j) for j in base + [k])
            for i in range(m1 + 1, s + 1)
            if i != k
        ):
            return True
    return s == m1


def is_well_behaved_per_occurrence(plan: Plan, signature, strict_theta: bool = False):
    """``is_well_behaved`` with every join occurrence checked on its own."""
    for _, node in subplans(plan):
        if isinstance(node, Join) and not _join_is_well_behaved_per_occurrence(
            node, signature, strict_theta
        ):
            return False, node
    return True, None


def evaluate_well_behaved_per_occurrence(plan: Plan, data: Structure, strict_theta: bool = False) -> EvalTrace:
    """The well-behaved evaluator with every subplan occurrence evaluated on
    its own, recursively: the reference for the shared evaluation."""
    ok, offender = is_well_behaved_per_occurrence(plan, data.signature, strict_theta)
    if not ok:
        raise WellBehavedError(f"plan is not well-behaved at {print_plan(offender)}")
    validate_plan(plan, data.signature)
    trace = EvalTrace()
    start = time.perf_counter()

    def rec(node: Plan, path: tuple) -> frozenset:
        if isinstance(node, Select):
            rows = _select_rows(rec(node.child, path + (0,)), node.theta)
        elif isinstance(node, Project):
            child = rec(node.child, path + (0,))
            rows = frozenset(tuple(t[c - 1] for c in node.cols) for t in child)
        elif isinstance(node, Join):
            rows = join_chain(node, path)
        else:
            rows = data.relations[node.relation]
        trace.entries.append(TraceEntry(path, node, rows))
        return rows

    def join_chain(node: Join, path) -> frozenset:
        outs = [rec(c, path + (i,)) for i, c in enumerate(node.children)]
        spans = []
        off = 0
        for c in node.children:
            m = arity_of(c, data.signature)
            spans.append(list(range(off + 1, off + m + 1)))
            off += m
        s = off
        classes = _column_classes(node.theta, s)
        bound: dict[int, int] = {}
        current = [
            t
            for t in sorted(outs[0])
            if all(
                t[a - 1] == t[b - 1]
                for a, b in itertools.combinations(spans[0], 2)
                if classes[a] == classes[b]
            )
        ]
        for col in spans[0]:
            bound.setdefault(classes[col], col - 1)
        width = len(spans[0])
        trace.internal_peak = max(trace.internal_peak, len(current))
        for child_idx in range(1, len(outs)):
            cols = spans[child_idx]
            key_pairs = []
            seen_class: dict[int, int] = {}
            new_cols = []
            for local, col in enumerate(cols):
                cls = classes[col]
                if cls in bound:
                    key_pairs.append((local, bound[cls]))
                elif cls not in seen_class:
                    seen_class[cls] = local
                    new_cols.append(local)
            table: dict[tuple, list] = {}
            for t in sorted(outs[child_idx]):
                if any(
                    classes[col] in seen_class
                    and seen_class[classes[col]] != local
                    and t[local] != t[seen_class[classes[col]]]
                    for local, col in enumerate(cols)
                ):
                    continue
                key = tuple(t[local] for local, _ in key_pairs)
                table.setdefault(key, []).append(tuple(t[local] for local in new_cols))
            next_rows = []
            for row in current:
                key = tuple(row[slot] for _, slot in key_pairs)
                next_rows.extend(row + ext for ext in table.get(key, ()))
            for local in new_cols:
                bound[classes[cols[local]]] = width
                width += 1
            current = next_rows
            trace.internal_peak = max(trace.internal_peak, len(current))
        return frozenset(
            tuple(row[bound[classes[col]]] for col in range(1, s + 1)) for row in current
        )

    rec(plan, ())
    trace.wall_time = time.perf_counter() - start
    return trace


# ---------------------------------------------------------------------------
# LP oracles
# ---------------------------------------------------------------------------


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for r, vec in enumerate(tableau):
        if r != row and vec[col] != 0:
            factor = vec[col]
            tableau[r] = [a - factor * b for a, b in zip(vec, tableau[row])]
    basis[row] = col


def _run_simplex(tableau: list[list[Fraction]], basis: list[int], cost: list[Fraction]) -> str:
    """Maximize ``cost`` over the feasible dictionary in ``tableau``.

    The last tableau row is the objective in reduced form (updated by
    pivots); returns "optimal" or "unbounded".
    """
    ncols = len(tableau[0]) - 1
    obj = [Fraction(0)] * (ncols + 1)
    for j in range(ncols):
        obj[j] = -cost[j]
    tableau.append(obj)
    # Price out the starting basis.
    for r, b in enumerate(basis):
        if cost[b] != 0:
            factor = tableau[-1][b]
            tableau[-1] = [a - factor * x for a, x in zip(tableau[-1], tableau[r])]
    while True:
        entering = None
        for j in range(ncols):
            if tableau[-1][j] < 0:
                entering = j  # Bland: smallest index
                break
        if entering is None:
            return "optimal"
        leaving = None
        best = None
        for r in range(len(basis)):
            a = tableau[r][entering]
            if a > 0:
                ratio = tableau[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    best = ratio
                    leaving = r
        if leaving is None:
            return "unbounded"
        _pivot(tableau, basis, leaving, entering)


def two_phase_solve_lp(
    objective: Sequence, constraints: Sequence[tuple[Sequence, str, object]], maximize: bool = True
) -> LpResult:
    """Solve max/min objective . x  subject to rows (coeffs, rel, rhs), x >= 0,
    by the two-phase simplex over ``Fraction`` entries (the reference for
    ``spjopt.simplex.solve_lp``, which handles packing LPs only).

    ``rel`` is one of "<=", ">=", "=".  Returns an exact optimal basic
    solution when one exists.
    """
    n = len(objective)
    c = [Fraction(v) for v in objective]
    if not maximize:
        c = [-v for v in c]
    rows = []
    for coeffs, rel, rhs in constraints:
        coeffs = [Fraction(v) for v in coeffs]
        rhs = Fraction(rhs)
        if rhs < 0:
            coeffs = [-v for v in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        rows.append((coeffs, rel, rhs))

    nslack = sum(1 for _, rel, _ in rows if rel in ("<=", ">="))
    nart = sum(1 for _, rel, _ in rows if rel in (">=", "="))
    total = n + nslack + nart
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    slack_at = n
    art_at = n + nslack
    art_cols = []
    for coeffs, rel, rhs in rows:
        vec = [Fraction(0)] * (total + 1)
        for j, v in enumerate(coeffs):
            vec[j] = v
        if rel == "<=":
            vec[slack_at] = Fraction(1)
            basis.append(slack_at)
            slack_at += 1
        elif rel == ">=":
            vec[slack_at] = Fraction(-1)
            slack_at += 1
            vec[art_at] = Fraction(1)
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        else:
            vec[art_at] = Fraction(1)
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        vec[-1] = rhs
        tableau.append(vec)

    if art_cols:
        phase1 = [Fraction(0)] * total
        for j in art_cols:
            phase1[j] = Fraction(-1)
        status = _run_simplex(tableau, basis, phase1)
        if status != "optimal" or tableau[-1][-1] != 0:
            return LpResult("infeasible", None, None)
        tableau.pop()
        # Drive leftover artificials out of the basis (degenerate rows).
        drop = []
        for r, b in enumerate(basis):
            if b in art_cols:
                piv_col = next(
                    (j for j in range(n + nslack) if tableau[r][j] != 0), None
                )
                if piv_col is None:
                    drop.append(r)
                else:
                    _pivot(tableau, basis, r, piv_col)
        for r in sorted(drop, reverse=True):
            tableau.pop(r)
            basis.pop(r)
        # Forbid artificials from re-entering.
        for vec in tableau:
            for j in art_cols:
                vec[j] = Fraction(0)

    status = _run_simplex(tableau, basis, c + [Fraction(0)] * (nslack + nart))
    if status == "unbounded":
        return LpResult("unbounded", None, None)
    value = tableau[-1][-1]
    solution = [Fraction(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            solution[b] = tableau[r][-1]
    if not maximize:
        value = -value
    return LpResult("optimal", value, solution)


def _gauss_solve(matrix, rhs):
    """Exact solution of a square system, or None if singular."""
    n = len(matrix)
    a = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def packing_lp_by_basic_enumeration(columns, constraint_rows):
    """Max 1.w for Aw <= 1, w >= 0 by enumerating basic solutions.

    ``columns`` is the number of variables, ``constraint_rows`` a list of
    0/1 coefficient lists.  Returns the exact optimum.
    """
    m = len(constraint_rows)
    n = columns
    if m == 0:
        return None if n else Fraction(0)
    # Slack form: [A | I] w' = 1.
    total = n + m
    best = Fraction(0)  # w = 0 is always feasible
    full = [[Fraction(constraint_rows[i][j]) for j in range(n)]
            + [Fraction(1) if k == i else Fraction(0) for k in range(m)]
            for i in range(m)]
    for cols in itertools.combinations(range(total), m):
        mat = [[full[i][c] for c in cols] for i in range(m)]
        sol = _gauss_solve(mat, [Fraction(1)] * m)
        if sol is None or any(v < 0 for v in sol):
            continue
        value = sum(v for c, v in zip(cols, sol) if c < n)
        if value > best:
            best = value
    return best


def fractional_edge_cover(edges, target) -> Fraction:
    """Direct covering LP over the edges: min total weight with every target
    vertex covered at least once."""
    target = [v for v in target]
    edges = [frozenset(e) for e in edges]
    usable = [e for e in edges if e]
    rows = []
    for v in target:
        rows.append(([Fraction(1) if v in e else Fraction(0) for e in usable], ">=", 1))
    res = two_phase_solve_lp([Fraction(1)] * len(usable), rows, maximize=False)
    assert res.status == "optimal", res.status
    return res.value


def synthesize_with_two_searches(core: OpenStructure, keys: KeySet, caps):
    """Plan synthesis with its own width search for the decomposition, over
    the key-eliminated structure with no keys, even when ``keys`` is empty;
    returns the plan and the decomposition."""
    elim = eliminate_fds(core, keys)
    dec = optimal_cwidth(elim.open, KeySet.empty(), cap=caps.width_universe).decomposition
    plan, _ = _assemble_plan(core, elim, dec)
    return plan, dec


# ---------------------------------------------------------------------------
# Exhaustive decomposition enumeration
# ---------------------------------------------------------------------------


def _trees_on(nodes):
    """All labeled trees on the node list, as edge lists (Pruefer)."""
    k = len(nodes)
    if k == 1:
        yield []
        return
    if k == 2:
        yield [(nodes[0], nodes[1])]
        return
    for seq in itertools.product(range(k), repeat=k - 2):
        degree = [1] * k
        for s in seq:
            degree[s] += 1
        edges = []
        seq_list = list(seq)
        leaves = sorted(i for i in range(k) if degree[i] == 1)
        for s in seq_list:
            leaf = leaves.pop(0)
            edges.append((nodes[leaf], nodes[s]))
            degree[s] -= 1
            degree[leaf] -= 1
            if degree[s] == 1:
                # insert keeping sorted order
                lo = 0
                while lo < len(leaves) and leaves[lo] < s:
                    lo += 1
                leaves.insert(lo, s)
        u, v = [i for i in range(k) if degree[i] == 1]
        edges.append((nodes[u], nodes[v]))
        yield edges


def exhaustive_min_cwidth(open_structure: OpenStructure, keys: KeySet) -> Fraction:
    """Minimum width over all tree decompositions, enumerated exhaustively.

    Sound because any decomposition reduces, without raising the width of a
    monotone bag measure, to one with at most |universe| pairwise-distinct
    bags, none contained in a neighbor; those are all enumerated here.
    """
    from spjopt import hypergraph_of

    h = hypergraph_of(open_structure)
    verts = sorted(h.vertices)
    n = len(verts)
    if n == 0:
        return Fraction(0)
    f_memo = {}

    def f(bag):
        if bag not in f_memo:
            f_memo[bag] = color_number(open_structure.structure, keys, bag)[0]
        return f_memo[bag]

    subsets = []
    for r in range(1, n + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(verts, r))
    best = None
    for k in range(1, n + 1):
        for bags in itertools.combinations(subsets, k):
            width = max(f(b) for b in bags)
            if best is not None and width >= best:
                continue
            chi = dict(enumerate(bags))
            for edges in _trees_on(list(range(k))):
                if check_tree_decomposition(h, edges, chi):
                    best = width
                    break
    assert best is not None, "no decomposition found (single full bag is always valid)"
    return best


# ---------------------------------------------------------------------------
# Valid colorings, literally
# ---------------------------------------------------------------------------


def coloring_is_valid(structure: Structure, keys: KeySet, col) -> bool:
    """The two defining conditions of a valid coloring, checked verbatim on
    per-element color sets."""
    for name in structure.signature.symbols():
        for pos in keys.for_relation(name):
            idx = [p - 1 for p in pos]
            for row in structure.relations[name]:
                key_colors = set().union(*(col.get(row[i], set()) for i in idx))
                for i in range(len(row)):
                    if i not in idx and not set(col.get(row[i], set())) <= key_colors:
                        return False
    return any(col.get(e) for e in structure.universe)


def coloring_ratio(structure: Structure, col) -> Fraction:
    """|colors on target| over max per-tuple colors (target handled by the
    caller by restricting ``col``)."""
    denom = 0
    for _, row in structure.atoms():
        denom = max(denom, len(set().union(*(set(col.get(e, ())) for e in row)) if row else set()))
    if denom == 0:
        return Fraction(0)
    total = len(set().union(*(set(v) for v in col.values())) if col else set())
    return Fraction(total, denom)

"""Acceptance gate: the eight project-level checks, one pass/fail line each.

Each test prints exactly one line "ACCEPTANCE <n>: PASS/FAIL (...)" so the
suite output doubles as the release report. The corpus sweeps are shared
through module fixtures and computed once.
"""

import itertools
import random
import time

import networkx as nx
import pytest

from hamsquare.graph import Graph, is_ham_cycle, is_ham_path
from hamsquare.decomposition import bc_canonical, decompose
from hamsquare.labelling import decide_hamiltonicity, HAMILTONIAN, NOT_HAMILTONIAN
from hamsquare.hamconn import (decide_hamiltonian_connectedness, HAM_CONNECTED,
                               NOT_HAM_CONNECTED)
from hamsquare.construct import construct_ham_cycle, construct_ham_path
from hamsquare.caterpillars import caterpillar_cycle
from hamsquare.oracle import cycle_with
from corpus import corpus, block_chains, inner_blocks
from families import minimal_families
from properties import is_ham_connected, two_connected, verify_property
from caterpillar_reference import adjacency, is_caterpillar, longest_spine


def _report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    if not ok:
        pytest.fail(line)


@pytest.fixture(scope="module")
def ham_sweep():
    """Hamiltonicity verdict and oracle ground truth for every corpus graph."""
    t0 = time.perf_counter()
    rows = []
    for g in corpus():
        if g.n < 3:
            continue
        v = decide_hamiltonicity(g)
        w = cycle_with(g.square(), g)
        rows.append((g, v, w is not None))
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def hc_sweep():
    rows = []
    for g in corpus():
        if g.n < 2:
            continue
        rows.append((g, decide_hamiltonian_connectedness(g)))
    return rows


def test_criterion_1_positive_oracle_cross_validation(ham_sweep):
    rows, elapsed = ham_sweep
    positives = [(g, truth) for g, v, truth in rows if v.outcome == HAMILTONIAN]
    violations = [g for g, truth in positives if not truth]
    ok = not violations and elapsed <= 60.0 and positives
    _report(1, ok, f"{len(positives)} positives all oracle-confirmed, "
                   f"{len(violations)} violations, {elapsed:.1f}s <= 60s")


def test_criterion_2_negative_oracle_cross_validation(ham_sweep):
    rows, _ = ham_sweep
    negatives = [(g, truth) for g, v, truth in rows
                 if v.outcome == NOT_HAMILTONIAN]
    violations = [g for g, truth in negatives if truth]
    ok = not violations and negatives
    _report(2, ok, f"{len(negatives)} negatives all oracle-confirmed, "
                   f"{len(violations)} violations")


def test_criterion_3_counterexample_certification():
    fams = minimal_families()
    failures = []
    times = []
    for f in fams:
        t0 = time.perf_counter()
        iso = (bc_canonical(decompose(f.skeleton))
               == bc_canonical(decompose(f.instance)))
        if f.kind == "cycle":
            bad = cycle_with(f.instance.square(), f.instance) is not None
        else:
            bad = is_ham_connected(f.instance.square())
        dt = time.perf_counter() - t0
        times.append(dt)
        if bad or not iso or dt > 5.0:
            failures.append(f.name)
    ok = len(fams) == 7 and not failures
    _report(3, ok, f"{len(fams) - len(failures)}/7 certified, "
                   f"slowest {max(times):.2f}s <= 5s"
                   + (f", failing: {failures}" if failures else ""))


def test_criterion_4_property_suites():
    checked = 0
    failures = []
    for kind, nmin in [("twoBlockCycle", 3), ("strongF3", 3),
                       ("strongF3ends", 3), ("H4", 4), ("F4", 4)]:
        for b in two_connected(nmin, 7):
            checked += 1
            if not verify_property(kind, b):
                failures.append((kind, b.edge_list_text()))
    # the negative side: some 2-block on more than 4 vertices lacks H5
    h5_failures = [b for b in two_connected(5, 5)
                   if not verify_property("H5", b)]
    ok = not failures and h5_failures
    _report(4, ok, f"{checked} property checks all hold, "
                   f"{len(h5_failures)} order-5 blocks without H5 found"
                   + (f", failing: {failures[:3]}" if failures else ""))


def test_criterion_5_constructor_validity(ham_sweep, hc_sweep):
    rows, _ = ham_sweep
    cyc_total = cyc_bad = 0
    for g, v, _truth in rows:
        if v.outcome != HAMILTONIAN:
            continue
        cyc_total += 1
        try:
            if not is_ham_cycle(g.square(), construct_ham_cycle(g)):
                cyc_bad += 1
        except Exception:
            cyc_bad += 1
    path_total = path_bad = neg_total = neg_bad = 0
    for g, v in hc_sweep:
        if v.outcome == NOT_HAM_CONNECTED:
            # a negative has no witness to validate: the oracle confirms it
            neg_total += 1
            if is_ham_connected(g.square()):
                neg_bad += 1
        if v.outcome != HAM_CONNECTED:
            continue
        sq = g.square()
        for x, y in itertools.combinations(g.sorted_vertices(), 2):
            path_total += 1
            try:
                if not is_ham_path(sq, construct_ham_path(g, x, y), x, y):
                    path_bad += 1
            except Exception:
                path_bad += 1
    ok = (cyc_bad == 0 and path_bad == 0 and neg_bad == 0 and cyc_total
          and path_total and neg_total)
    _report(5, ok, f"{cyc_total} cycles and {path_total} pair paths "
                   f"all validated, {neg_total} connectedness negatives "
                   f"checked against the oracle, "
                   f"{cyc_bad + path_bad + neg_bad} failures")


def test_criterion_6_caterpillar_reservations():
    total = bad = 0
    for n in range(3, 11):
        for t in nx.nonisomorphic_trees(n):
            g = Graph.from_edges(t.edges())
            if not is_caterpillar(g):
                continue
            total += 1
            spine = longest_spine(g)
            ends = frozenset({spine[0], spine[-1]})
            pairs = frozenset(spine[1:-1])
            try:
                order, reserved = caterpillar_cycle(
                    adjacency(g), need_end=ends, need_pair=pairs)
            except Exception:
                bad += 1
                continue
            if not is_ham_cycle(g.square(), order):
                bad += 1
                continue
            ring = {frozenset(e) for e in zip(order, order[1:] + order[:1])}
            seen = set()
            for v in ends | pairs:
                e = frozenset(reserved[v])
                if e in seen or e not in ring:
                    bad += 1
                    break
                if v in ends and v not in e:
                    bad += 1
                    break
                if v in pairs and not set(e) <= g.neighbors(v):
                    bad += 1
                    break
                seen.add(e)
    ok = bad == 0 and total
    _report(6, ok, f"{total} caterpillars on 3..10 vertices, {bad} failures")


def test_criterion_7_block_chains(hc_sweep):
    verdicts = {g.edge_list_text(): v for g, v in hc_sweep}
    mismatches = 0
    chains = block_chains()
    for g in chains:
        if g.n < 2:
            continue
        v = verdicts[g.edge_list_text()]
        structural = all(b.is_two_block for b in inner_blocks(g))
        if (v.outcome == HAM_CONNECTED) != structural:
            mismatches += 1
    _report(7, mismatches == 0,
            f"{len(chains)} block chains, {mismatches} mismatches between "
            "verdict and inner-block shape")


def test_criterion_8_relabelling_invariance():
    rng = random.Random(20260823)
    graphs = [g for g in corpus() if g.n >= 2]
    mismatches = 0
    for g in graphs:
        base_ham = None
        if g.n >= 3:
            v = decide_hamiltonicity(g)
            base_ham = (v.outcome, v.violated_condition)
        w = decide_hamiltonian_connectedness(g)
        base_hc = w.outcome
        vs = g.sorted_vertices()
        for _ in range(20):
            perm = vs[:]
            rng.shuffle(perm)
            h = g.relabelled(dict(zip(vs, perm)))
            if g.n >= 3:
                v2 = decide_hamiltonicity(h)
                if (v2.outcome, v2.violated_condition) != base_ham:
                    mismatches += 1
            if decide_hamiltonian_connectedness(h).outcome != base_hc:
                mismatches += 1
    _report(8, mismatches == 0,
            f"{len(graphs)} graphs x 20 relabellings, {mismatches} "
            "verdict changes")

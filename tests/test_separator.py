import itertools
import math
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ccwkit import (
    Factorization,
    Graph,
    Measure,
    OrderedCliqueCover,
    SeparatorResult,
    audit_lower_bound,
    factorize_apex_grid,
    factorize_clique_sum,
    is_chordal,
    is_clique,
    product_cell_cover,
    separate,
)
from ccwkit.constructions import _make_factorization
from ccwkit.errors import InvalidFactorization, InvalidMeasure, NoApex, NotCliqueInFactorOne
from ccwkit.graph import GridCell
from ccwkit.separator import _assert_separator

from oracles import reference_measure_error


class IntWeight(int):
    """An int subclass, as some number libraries return: a weight."""


class FloatWeight(float):
    """A float subclass, such as numpy's float64: a weight."""


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def trivial_complete_factorization(n):
    kn = complete(n)
    _, cert = is_chordal(kn)
    cover = OrderedCliqueCover((frozenset(range(n)),))
    return Factorization(
        base=kn,
        factors=(kn, kn),
        chordal_cert=cert,
        covers=(cover,),
        widths=(0,),
        lstar=0,
    )


class TestMeasure:
    def test_uniform_total(self):
        assert Measure.uniform(5).total(5) == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Measure.from_list([1, -1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    def test_invalid_weight_is_a_ccwkit_error(self, bad):
        with pytest.raises(InvalidMeasure):
            Measure((1.0, bad))

    def test_total_must_be_finite(self):
        big = sys.float_info.max
        assert Measure((big, 0.0)).total(2) == big
        with pytest.raises(InvalidMeasure, match="must sum to a finite total"):
            Measure((big, big))

    @given(st.lists(st.one_of(
        st.integers(0, 9), st.floats(0, 9), st.booleans(), st.text(max_size=2), st.none(),
        st.just(IntWeight(3)), st.just(FloatWeight(2.5)),
    ), max_size=8))
    def test_from_list_names_the_first_bad_entry(self, weights):
        expected = reference_measure_error(weights)
        if expected is None:
            assert Measure.from_list(weights).weights == tuple(map(float, weights))
            return
        with pytest.raises(expected[0]) as info:
            Measure.from_list(weights)
        assert str(info.value) == expected[1]

    def test_total_rejects_wrong_length(self):
        with pytest.raises(InvalidMeasure):
            Measure.uniform(3).total(4)

    @given(
        st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=10),
        st.data(),
    )
    def test_axioms_on_random_subsets(self, weights, data):
        mu = Measure.from_list(weights)
        n = len(weights)
        s1 = set(data.draw(st.sets(st.integers(min_value=0, max_value=n - 1))))
        s2 = set(data.draw(st.sets(st.integers(min_value=0, max_value=n - 1))))
        # monotone, subadditive, additive on disjoint parts
        assert mu.of(s1 & s2) <= mu.of(s1) + 1e-9
        assert mu.of(s1 | s2) <= mu.of(s1) + mu.of(s2) + 1e-9
        if not s1 & s2:
            assert math.isclose(mu.of(s1 | s2), mu.of(s1) + mu.of(s2))


class TestProductCellCover:
    def test_single_block_single_cell(self):
        f = factorize_apex_grid(1, 4)
        pair = {0, 4}  # vertical neighbors: one column block, clique in factor 1
        cells = product_cell_cover(f.base, pair, list(f.covers))
        assert len(cells) == 1 and cells[0] == frozenset(pair)

    def test_two_rows_plus_apex(self):
        f = factorize_apex_grid(1, 6)
        s = {v for v in range(36) if f.base.labels[v].row in (3, 4)} | {36}
        cells = product_cell_cover(f.base, s, list(f.covers))
        assert len(cells) <= 7  # 6 columns, the apex in one of their blocks
        for cell in cells:
            assert is_clique(f.base, cell)

    def test_row_band_cell_count(self):
        f = factorize_apex_grid(0, 5)
        s = {v for v in range(25) if f.base.labels[v].row in (2, 3)}
        cells = product_cell_cover(f.base, s, list(f.covers))
        # one cell per column meeting the band
        assert len(cells) == 5

    def test_non_clique_rejected(self):
        f = factorize_apex_grid(0, 4)
        bad = {0, 12}  # same column, three rows apart: not a factor-1 clique
        with pytest.raises(NotCliqueInFactorOne):
            product_cell_cover(f.base, bad, list(f.covers))


class TestSeparate:
    def test_complete_base_trivial(self):
        f = trivial_complete_factorization(9)
        r = separate(f)
        assert r.separator == frozenset(range(9))
        assert r.side_a == r.side_b == frozenset()
        assert len(r.separator_cliques) == 1

    def test_apex_grid_n8(self):
        f = factorize_apex_grid(1, 8)
        r = separate(f)
        total = 65
        assert r.mu_a <= 2 * total / 3 and r.mu_b <= 2 * total / 3
        covered = set()
        for c in r.separator_cliques:
            assert is_clique(f.base, c)
            assert not covered & c
            covered |= c
        assert covered == set(r.separator)

    def test_apex_grid_n6_k0_clique_count(self):
        f = factorize_apex_grid(0, 6)
        r = separate(f)
        rows = {f.base.labels[v].row for v in r.separator}
        assert len(rows) <= 2 and max(rows) - min(rows) <= 1
        assert len(r.separator_cliques) <= 6

    def test_partition_and_no_crossing(self):
        f = factorize_apex_grid(2, 6, {(1, 2)})
        r = separate(f)
        n = f.base.n
        assert r.side_a | r.side_b | r.separator == set(range(n))
        for u, v in f.base.edges():
            assert not (u in r.side_a and v in r.side_b)
            assert not (u in r.side_b and v in r.side_a)

    def test_uniform_measure_sums(self):
        f = factorize_apex_grid(1, 6)
        r = separate(f)
        assert r.mu_a + r.mu_b + len(r.separator) == f.base.n

    def test_float_weights_keep_their_last_digit(self):
        # each side is the running sum of its components' weights, each
        # component summed over the set of its members; summed in ascending
        # order instead, the second side would weigh 4.3
        weights = [0.7, 0.7, 0.1, 0.3, 0.7, 0.7, 0.3, 0.7, 0.3, 0.2, 0.2, 0.3,
                   0.2, 0.1, 0.3, 0.2, 0.3, 0.1, 0.1, 0.3, 0.7, 0.1, 0.3, 0.7,
                   0.3, 0.2, 0.7, 0.7, 0.3, 0.1, 0.1, 0.1, 0.7, 0.1, 0.7, 0.3]
        r = separate(factorize_apex_grid(0, 6), Measure.from_list(weights))
        assert (r.mu_a, r.mu_b) == (5.2, 4.299999999999999)

    def test_weighted_measure(self):
        f = factorize_apex_grid(1, 6)
        weights = [2.0 if v < 18 else 1.0 for v in range(f.base.n)]
        mu = Measure.from_list(weights)
        r = separate(f, mu)
        total = mu.total(f.base.n)
        assert r.mu_a <= 2 * total / 3 and r.mu_b <= 2 * total / 3

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_apex_grids_cut_the_middle_rows(self, k):
        for n in range(2, 17):
            for apex_edges in [set(), {(1, 2)}] if k >= 2 else [set()]:
                f = factorize_apex_grid(k, n, apex_edges)
                r = separate(f)
                cut = [f.base.labels[v] for v in r.separator]
                rows = {lbl.row for lbl in cut if isinstance(lbl, GridCell)}
                mid = (n + 1) // 2
                assert rows == {mid, mid + 1}, (k, n, apex_edges)
                assert r.mu_a >= r.mu_b

    def test_bound_value_d2_form(self):
        f = factorize_apex_grid(1, 8)
        r = separate(f)
        assert math.isclose(r.bound_value, 4 * math.sqrt(r.lstar * 65))


class TestAudit:
    def test_grid_clique_is_two_rows(self):
        f = factorize_apex_grid(1, 6)
        rep = audit_lower_bound(f)
        assert rep.grid_clique_size == 12
        assert rep.indep_size >= 6
        assert rep.restricted_cover_sizes == (6,)

    def test_small_cross_checked_brute_force(self):
        from oracles import brute_maximal_cliques
        from ccwkit import induced_subgraph

        f = factorize_apex_grid(1, 4)
        rep = audit_lower_bound(f)
        sub, _ = induced_subgraph(f.factors[0], range(16))
        assert rep.grid_clique_size == max(len(c) for c in brute_maximal_cliques(sub))

    def test_product_cells_bounded(self):
        for n in (4, 6, 8):
            rep = audit_lower_bound(factorize_apex_grid(1, n))
            prod = 1
            for s in rep.restricted_cover_sizes:
                prod *= s
            assert rep.product_cells <= prod
            assert rep.indep_size >= (rep.grid_clique_size + 1) // 2

    @settings(deadline=None)
    @given(st.data())
    def test_the_report_keeps_the_argument_s_two_bounds(self, data):
        """The independent set holds at least half the grid clique, and the
        product cells are at most the product of the restricted cover
        sizes, on apex grids k = 1..3, n = 2..8 with random apex edges and
        on clique sums of 1-3 of them with random removed edges, for a
        random audited apex: `audit_lower_bound` does not check either."""
        k = data.draw(st.integers(1, 3))
        pairs = list(itertools.combinations(range(1, k + 1), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
        if data.draw(st.booleans()):
            f = factorize_apex_grid(k, data.draw(st.integers(2, 8)), set(edges))
        else:
            sizes = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
            f = factorize_clique_sum([(k, n) for n in sizes], edges)
        rep = audit_lower_bound(f, data.draw(st.integers(1, k)))
        assert rep.indep_size >= (rep.grid_clique_size + 1) // 2
        assert rep.product_cells <= math.prod(rep.restricted_cover_sizes)

    def test_missing_apex(self):
        with pytest.raises(NoApex):
            audit_lower_bound(factorize_apex_grid(1, 4), x=2)

    def test_apex_not_joined_to_the_grid_clique(self):
        # the grid clique is rows 3 and 4 (vertices 8..15); apex 1, vertex
        # 16, shares a cover block with column 2 (vertices 1, 5, 9, 13), so
        # it loses its edges to 10 and 12, outside that block, in the base
        # and in factor 2
        f = factorize_apex_grid(1, 4)
        gone = {(10, 16), (12, 16)}

        def cut(g):
            return Graph.from_edges(g.n, [e for e in g.edges() if e not in gone], g.labels)

        # a width bound of n cannot bind, so only the audit refuses g
        factors = [f.factors[0], cut(f.factors[1])]
        g = _make_factorization(cut(f.base), factors, f.covers, f.base.n)
        with pytest.raises(InvalidFactorization) as info:
            audit_lower_bound(g)
        assert str(info.value) == (
            "apex 1 (vertex 16) is not adjacent in the base to vertex 10 of the grid clique"
        )

    def test_lower_bound_consistency_d2(self):
        for n in (5, 9):
            rep = audit_lower_bound(factorize_apex_grid(1, n))
            assert rep.restricted_cover_sizes[0] == n >= n


# name: (a fault put into the separator of the apex grid k = 1, n = 6 and its
# measure, the refusal of `_assert_separator`); the crossing edge is checked
# by the test below
FAULTS = {
    "a vertex in no block": (
        lambda mu, r: (mu, replace(r, side_a=r.side_a - {min(r.side_a)})),
        "separator result does not partition V",
    ),
    "a vertex in two blocks": (
        lambda mu, r: (mu, replace(r, side_a=r.side_a | {min(r.separator)})),
        "separator result blocks overlap",
    ),
    "an unbalanced side": (
        lambda mu, r: (Measure.from_list([float(v in r.side_a) for v in range(37)]), r),
        "side measure exceeds 2mu(G)/3",
    ),
    "a stored mu_a of 0": (
        lambda mu, r: (mu, replace(r, mu_a=0.0)),
        "sides weigh 12.0, 12.0, not the stored 0.0, 12.0",
    ),
    "a stored mu_b off by 1e-6": (
        lambda mu, r: (mu, replace(r, mu_b=r.mu_b + 1e-6)),
        "sides weigh 12.0, 12.0, not the stored 12.0, 12.000001",
    ),
    "a stored mu_b of NaN": (
        lambda mu, r: (mu, replace(r, mu_b=math.nan)),
        "sides weigh 12.0, 12.0, not the stored 12.0, nan",
    ),
    "two columns as one separator clique": (
        lambda mu, r: (mu, replace(r, separator_cliques=(
            r.separator_cliques[0] | r.separator_cliques[1], *r.separator_cliques[2:]
        ))),
        "separator clique fails in base graph",
    ),
    "a separator clique twice": (
        lambda mu, r: (mu, replace(r, separator_cliques=(*r.separator_cliques,
                                                         r.separator_cliques[0]))),
        "separator cliques overlap",
    ),
    "a separator clique missing": (
        lambda mu, r: (mu, replace(r, separator_cliques=r.separator_cliques[1:])),
        "separator cliques do not cover the separator",
    ),
}


@pytest.mark.parametrize("fault, message", FAULTS.values(), ids=FAULTS.keys())
def test_assert_separator_refuses_each_fault(fault, message):
    f = factorize_apex_grid(1, 6)
    r = separate(f)
    # side A weighs 12 of the 37 vertices, side B 12, and the separator is
    # rows 3 and 4 as column pairs in cover order, the apex with the third
    assert (r.mu_a, r.mu_b, len(r.separator)) == (12.0, 12.0, 13)
    assert [len(c) for c in r.separator_cliques] == [2, 2, 3, 2, 2, 2]
    _assert_separator(f.base, Measure.uniform(37), r)
    with pytest.raises(InvalidFactorization) as info:
        _assert_separator(f.base, *fault(Measure.uniform(37), r))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "weights, refused",
    [
        ((1.6, 0.1, 0.0), True),
        # a total past about 9e307, where 2 * total is inf
        ((1.6e308, 1e307, 0.0), True),
        ((5e307, 5e307, 5e307), False),
    ],
)
def test_balance_is_checked_whatever_the_total(weights, refused):
    # three isolated vertices: side a is {0}, side b {1}, the separator {2}
    g = Graph.from_edges(3, [])
    r = SeparatorResult(frozenset({2}), (frozenset({2}),), frozenset({0}), frozenset({1}),
                        weights[0], weights[1], 0, 0.0)
    if refused:
        with pytest.raises(InvalidFactorization, match=r"^side measure exceeds 2mu\(G\)/3$"):
            _assert_separator(g, Measure(weights), r)
    else:
        _assert_separator(g, Measure(weights), r)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_crossing_edge_matches_a_scan_of_every_edge(data):
    # the first crossing edge found from side masks is the first of a scan
    # over every base edge in order
    n = data.draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    g = Graph.from_edges(n, edges)
    place = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    sep, a, b = ({v for v in range(n) if place[v] == i} for i in range(3))
    r = SeparatorResult(frozenset(sep), tuple(frozenset({v}) for v in sorted(sep)),
                        frozenset(a), frozenset(b), 0.0, 0.0, 0, 0.0)
    first = next(((u, v) for u, v in sorted(g.edges())
                  if {place[u], place[v]} == {1, 2}), None)
    # weight 0 everywhere makes the stored measures 0.0 true and any split
    # balanced, so only a crossing edge can be refused
    zero = Measure((0.0,) * n)
    if first is None:
        _assert_separator(g, zero, r)
    else:
        with pytest.raises(InvalidFactorization) as info:
            _assert_separator(g, zero, r)
        assert str(info.value) == f"edge ({first[0]},{first[1]}) crosses the separator"

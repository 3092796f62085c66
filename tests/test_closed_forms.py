"""Tests for the closed-form counts and representation-theoretic dimensions."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from cascade.census import (
    SupportType,
    all_types,
    n_by_type_from_supports,
    oracle_supports,
)
from cascade.closed_forms import (
    binomial,
    dim_4theta_minus_alpha,
    dim_relation_space,
    dim_s_theta,
    embeddings_per_support,
    equivalence_identity,
    n_by_type_closed,
    n_total_closed,
    support_count_closed,
    weyl_dim,
)
from cascade.geometry import Rank


class TestBinomial:
    def test_values(self):
        assert binomial(10, 3) == 120
        assert binomial(4, 0) == 1
        assert binomial(24, 7) == 346104
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0
        assert binomial(-2, 1) == 0


class TestEmbeddingsPerSupport:
    def test_examples(self):
        k = 2
        assert embeddings_per_support(k, SupportType.a(3)) == 2 * binomial(3, 2) == 6
        assert embeddings_per_support(k, SupportType.a(2)) == 1 * binomial(3, 1) == 3
        assert embeddings_per_support(k, SupportType.a(4)) == 3 * binomial(3, 3) == 3
        assert embeddings_per_support(k, SupportType.b(2, "|")) == binomial(1, 1) == 1
        assert embeddings_per_support(k, SupportType.c("||", 1)) == binomial(1, 0) == 1
        assert embeddings_per_support(k, SupportType.d(1, "|", 1)) == binomial(1, 1) == 1

    def test_general_k(self):
        assert embeddings_per_support(3, SupportType.a(3)) == 2 * binomial(4, 2) == 12
        assert embeddings_per_support(3, SupportType.b(1, "|")) == binomial(2, 0) == 1
        assert embeddings_per_support(3, SupportType.d(2, "||", 1)) == binomial(2, 2) == 1


class TestSupportCountClosed:
    def test_n1_values(self):
        rank = Rank(1)
        expected = {
            "A2": 16, "A3": 8, "A4": 0,
            "B1|": 11, "B2|": 4, "B1||": 4, "B2||": 0,
            "C|1": 5, "C|2": 2, "C||1": 2, "C||2": 0,
            "D1|1": 2, "D1||1": 0,
        }
        for t in all_types():
            assert support_count_closed(rank, t) == expected[t.key()], t.key()
        # sigma values weighted by embedding coefficients recover the total
        assert sum(
            embeddings_per_support(2, t) * expected[t.key()] for t in all_types()
        ) == 126

    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    def test_matches_oracle(self, n):
        rank = Rank(n)
        for t in all_types():
            assert support_count_closed(rank, t) == oracle_supports(rank, t), t.key()

    def test_generic_parameters_beyond_report_table(self):
        # The nested sums are generic in (r, s); check a few larger shapes.
        rank = Rank(2)
        for key in ("A5", "B3|", "C||3", "D2|1", "D1||2"):
            t = SupportType.from_key(key)
            assert support_count_closed(rank, t) == oracle_supports(rank, t), key


_ROW_TAGS = st.sampled_from(["|", "||"])
_GENERIC_TYPES = st.one_of(
    st.builds(SupportType.a, st.integers(min_value=2, max_value=5)),
    st.builds(SupportType.b, st.integers(min_value=1, max_value=3), _ROW_TAGS),
    st.builds(SupportType.c, _ROW_TAGS, st.integers(min_value=1, max_value=3)),
    st.builds(
        SupportType.d,
        st.integers(min_value=1, max_value=2),
        _ROW_TAGS,
        st.integers(min_value=1, max_value=2),
    ),
)


@given(st.integers(min_value=1, max_value=3), _GENERIC_TYPES)
@settings(max_examples=100, deadline=None)
def test_memoised_sum_matches_walk_on_generic_types(n, t):
    """The anchor and gap-chain caches against the support walk, any shape."""
    assert support_count_closed(Rank(n), t) == oracle_supports(Rank(n), t)


class TestPolynomials:
    def test_n1_values(self):
        rank = Rank(1)
        expected = {
            "A2": 48, "A3": 48, "A4": 0,
            "B1|": 11, "B2|": 4, "B1||": 4, "B2||": 0,
            "C|1": 5, "C|2": 2, "C||1": 2, "C||2": 0,
            "D1|1": 2, "D1||1": 0,
        }
        for key, value in expected.items():
            assert n_by_type_closed(Rank(1), SupportType.from_key(key)) == value, key
        assert sum(expected.values()) == 126 == n_total_closed(rank)

    def test_n2_values(self):
        expected = {
            "A2": 435, "A3": 1608, "A4": 648,
            "B1|": 161, "B2|": 211, "B1||": 182, "B2||": 124,
            "C|1": 105, "C|2": 147, "C||1": 126, "C||2": 90,
            "D1|1": 95, "D1||1": 58,
        }
        for key, value in expected.items():
            assert n_by_type_closed(Rank(2), SupportType.from_key(key)) == value, key

    @pytest.mark.parametrize("n", range(1, 41))
    def test_agree_with_coefficient_times_count(self, n):
        rank = Rank(n)
        for t in all_types():
            assert n_by_type_closed(rank, t) == embeddings_per_support(
                2, t
            ) * support_count_closed(rank, t), t.key()

    @pytest.mark.parametrize("n", range(1, 41))
    def test_sum_to_total(self, n):
        rank = Rank(n)
        assert sum(n_by_type_closed(rank, t) for t in all_types()) == n_total_closed(
            rank
        )

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="no closed polynomial"):
            n_by_type_closed(Rank(2), SupportType.a(5))

    def test_totals(self):
        assert n_total_closed(Rank(1)) == 126
        assert n_total_closed(Rank(2)) == 3990
        assert n_total_closed(Rank(9)) == 53905698

    def test_by_type_rejects_other_levels(self):
        # The walk is level-aware; the polynomials hold for k=2 only.
        a2 = SupportType.a(2)
        assert n_by_type_from_supports(Rank(2, 3), a2) == 580
        with pytest.raises(ValueError, match="k=3"):
            n_by_type_closed(Rank(2, 3), a2)

    def test_total_rejects_other_levels(self):
        with pytest.raises(ValueError, match="k=1"):
            n_total_closed(Rank(2, 1))
        with pytest.raises(ValueError, match="k=3"):
            equivalence_identity(Rank(2, 3))


class TestWeylDim:
    def test_examples(self):
        assert weyl_dim(Rank(3), [1]) == 6
        assert weyl_dim(Rank(3), [1, 1]) == 14
        assert weyl_dim(Rank(3), [2]) == 21
        assert weyl_dim(Rank(2), []) == 1
        assert weyl_dim(Rank(2), [2, 2]) == 14
        assert weyl_dim(Rank(3), [2, 2]) == 90

    def test_theta_multiples_match_binomial_formula(self):
        for n in range(1, 11):
            rank = Rank(n)
            for s in range(0, 5):
                direct = weyl_dim(rank, [2 * s]) if s else weyl_dim(rank, [])
                assert direct == dim_s_theta(rank, s) == binomial(2 * n + 2 * s - 1, 2 * s)

    def test_seven_one_matches_closed_form(self):
        for n in range(2, 11):
            rank = Rank(n)
            assert weyl_dim(rank, [7, 1]) == dim_4theta_minus_alpha(rank)

    def test_validation(self):
        with pytest.raises(ValueError):
            weyl_dim(Rank(2), [1, 1, 1])
        with pytest.raises(ValueError):
            weyl_dim(Rank(3), [1, 2])
        with pytest.raises(ValueError):
            weyl_dim(Rank(3), [2, -1])
        with pytest.raises(ValueError):
            dim_s_theta(Rank(3), -1)

    def test_dim_s_theta_values(self):
        assert dim_s_theta(Rank(3), 0) == 1
        assert dim_s_theta(Rank(3), 1) == 21
        assert dim_s_theta(Rank(3), 2) == 126  # C(9, 4)
        assert dim_s_theta(Rank(2), 1) == 10

    def test_dim_4theta_minus_alpha_values(self):
        assert dim_4theta_minus_alpha(Rank(1)) == 0
        assert dim_4theta_minus_alpha(Rank(2)) == weyl_dim(Rank(2), [7, 1])
        assert dim_4theta_minus_alpha(Rank(3)) == weyl_dim(Rank(3), [7, 1])


class TestRelationSpace:
    def test_values(self):
        assert dim_relation_space(Rank(1)) == 2 * binomial(8, 7)
        assert dim_relation_space(Rank(2)) == 4 * binomial(10, 7)
        assert dim_relation_space(Rank(3)) == 6 * binomial(12, 7)

    def test_decomposition_holds(self):
        for n in range(1, 21):
            rank = Rank(n)
            total = dim_relation_space(rank)
            assert total == (
                dim_s_theta(rank, 3)
                + dim_s_theta(rank, 4)
                + dim_4theta_minus_alpha(rank)
            )
            assert total == 2 * n * binomial(2 * n + 6, 7)


class TestEquivalenceIdentity:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 50, 100])
    def test_holds(self, n):
        assert equivalence_identity(Rank(n))

    def test_is_the_stated_identity(self):
        rank = Rank(4)
        lhs = 9 * dim_relation_space(rank) - 2 * dim_s_theta(rank, 4)
        assert lhs == n_total_closed(rank)


class TestVanishing:
    def test_impossible_types_vanish_at_n1(self):
        rank = Rank(1)
        for key in ("A4", "B2||", "C||2", "D1||1"):
            assert n_by_type_closed(rank, SupportType.from_key(key)) == 0
            assert support_count_closed(rank, SupportType.from_key(key)) == 0

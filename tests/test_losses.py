import numpy as np
import pytest

from confusionkit.losses import (
    _ce_core,
    _ge2e_core,
    _prototypical_core,
    _triplet_core,
    multitask_loss,
)
from confusionkit.training import TrainConfig, ge2e_batch, prototypical_batch

from oracles import (
    finite_difference_check,
    nll_oracle,
    prototypical_probs_oracle,
    softmax_oracle,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_unit(rng, dim=8):
    return unit(rng.normal(size=dim))


def sphere_point_at_distance(anchor, d, direction):
    """Unit vector at exact Euclidean distance d from the unit vector anchor."""
    cos_theta = 1.0 - d**2 / 2.0
    sin_theta = np.sqrt(1.0 - cos_theta**2)
    return cos_theta * anchor + sin_theta * direction


def ge2e_on_sphere(x, labels, centroids, w):
    """_ge2e_core on raw probes x: normalize, then backprop the probe
    gradient through u = x / |x| (the trainer's chain step)."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    u = x / norms
    value, probs, gu, gc, gw = _ge2e_core(u, labels, centroids, w)
    gx = (gu - u * np.sum(u * gu, axis=1, keepdims=True)) / norms
    return value, probs, gx, gc, gw


class TestTriplet:
    def test_direct_formula(self):
        u = np.array([1.0, 0.0, 0.0])
        v = sphere_point_at_distance(u, 0.5, np.array([0.0, 1.0, 0.0]))
        w = sphere_point_at_distance(u, 1.0, np.array([0.0, 0.0, 1.0]))
        value = _triplet_core(unit(u), unit(v), unit(w), 1.0)[0]
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_inactive_hinge_zero_gradients(self):
        u = np.array([1.0, 0.0, 0.0])
        v = sphere_point_at_distance(u, 0.2, np.array([0.0, 1.0, 0.0]))
        w = sphere_point_at_distance(u, 1.5, np.array([0.0, 0.0, 1.0]))
        value, gu, gv, gw = _triplet_core(unit(u), unit(v), unit(w), 1.0)
        assert value == 0.0
        assert np.all(gu == 0)
        assert np.all(gv == 0)
        assert np.all(gw == 0)

    def test_nonnegative_and_zero_exactly_when_separated(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u, v, w = (random_unit(rng) for _ in range(3))
            value = _triplet_core(u, v, w, 1.0)[0]
            assert value >= 0.0
            d_pos = np.linalg.norm(u - v)
            d_neg = np.linalg.norm(u - w)
            assert (value == 0.0) == (d_neg >= d_pos + 1.0)

    def test_gradients_match_finite_differences(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x0 = np.concatenate([random_unit(rng) for _ in range(3)])

            def evaluate(flat):
                u, v, w = flat[:8], flat[8:16], flat[16:]
                value, gu, gv, gw = _triplet_core(u, v, w, 1.0)
                return value, np.concatenate([gu, gv, gw])

            if evaluate(x0)[0] == 0.0:  # inactive hinge has trivial gradients
                continue
            assert finite_difference_check(evaluate, x0, eps=1e-5) < 1e-4

    def test_config_validation(self):
        """The training config rejects a negative or non-finite margin."""
        for alpha in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                TrainConfig(scheme="TL1", alpha=alpha)
        with pytest.raises(ValueError):
            TrainConfig(scheme="TL9")


class TestPrototype:
    """Prototypes are the plain mean of the embedded support set, as built
    by prototypical_batch. An identity projection makes the embeddings
    equal to the (unit-norm) features."""

    def test_single_element(self):
        q = unit([1, 0, 0])[None, :]
        s0, s1 = unit([0, 1, 0]), unit([0, 1, 1])
        got, _ = prototypical_batch(np.eye(3), q, np.array([0]), [s0[None], s1[None]])
        want = _prototypical_core(q, np.array([0]), np.stack([s0, s1]))[0]
        assert got == want

    def test_symmetric_pair_is_zero(self):
        e = unit([3, 4, 0])
        q = unit([0, 0, 1])[None, :]
        other = unit([1, 1, 1])
        got, _ = prototypical_batch(
            np.eye(3), q, np.array([0]), [np.stack([e, -e]), other[None]]
        )
        want = _prototypical_core(q, np.array([0]), np.stack([np.zeros(3), other]))[0]
        assert got == pytest.approx(want, abs=1e-15)

    def test_mean_matches_naive_summation(self):
        rng = np.random.default_rng(4)
        members = [random_unit(rng) for _ in range(5)]
        other = [random_unit(rng) for _ in range(3)]
        q = random_unit(rng)[None, :]
        got, _ = prototypical_batch(
            np.eye(8), q, np.array([0]), [np.stack(members), np.stack(other)]
        )
        naive = np.stack([sum(members) / 5.0, sum(other) / 3.0])
        want = _prototypical_core(q, np.array([0]), naive)[0]
        assert got == pytest.approx(want, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(support_size=0)


class TestPrototypicalLoss:
    def test_equidistant_prototypes_split_evenly(self):
        q = unit([1.0, 0.0, 0.0])[None, :]
        protos = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
        value, probs, _, _ = _prototypical_core(q, np.array([0]), protos)
        np.testing.assert_allclose(probs[0], [0.5, 0.5], atol=1e-12)
        assert value == pytest.approx(np.log(2.0), abs=1e-12)

    def test_probabilities_match_direct_softmax(self):
        """Prototypes at exact distances 0.2 and 1.0 from the query."""
        q = unit([1.0, 0.0, 0.0])
        r1 = q + 0.2 * np.array([0, 1.0, 0])
        r2 = q + 1.0 * np.array([0, 0, 1.0])
        _, probs, _, _ = _prototypical_core(q[None, :], np.array([0]), np.stack([r1, r2]))
        expect = softmax_oracle([-0.2, -1.0])
        np.testing.assert_allclose(probs[0], expect, atol=1e-12)

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            protos = rng.normal(size=(4, 8))
            q = random_unit(rng)
            value, probs, _, _ = _prototypical_core(q[None, :], np.array([2]), protos)
            expect = prototypical_probs_oracle(q, protos)
            np.testing.assert_allclose(probs[0], expect, atol=1e-12)

    def test_probabilities_normalized_and_positive(self):
        rng = np.random.default_rng(11)
        queries = np.stack([random_unit(rng) for _ in range(6)])
        labels = np.arange(6) % 3
        protos = np.stack(
            [np.mean([random_unit(rng) for _ in range(4)], axis=0) for _ in range(3)]
        )
        _, probs, _, _ = _prototypical_core(queries, labels, protos)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs > 0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        queries = np.stack([random_unit(rng) for _ in range(5)])
        labels = np.arange(5) % 3
        protos = np.stack(
            [np.mean([random_unit(rng) for _ in range(3)], axis=0) for _ in range(3)]
        )
        base = _prototypical_core(queries, labels, protos)
        perm = np.array([2, 0, 1])
        moved = _prototypical_core(queries, np.argsort(perm)[labels], protos[perm])
        assert moved[0] == pytest.approx(base[0], abs=1e-12)
        np.testing.assert_allclose(moved[1], base[1][:, perm], atol=1e-12)
        np.testing.assert_allclose(moved[2], base[2], atol=1e-12)
        np.testing.assert_allclose(moved[3], base[3][perm], atol=1e-12)

    def test_unknown_label_rejected(self):
        rng = np.random.default_rng(13)
        protos = np.stack([random_unit(rng) for _ in range(2)])
        q = random_unit(rng)[None, :]
        for label in (9, 2, -1):
            with pytest.raises(ValueError):
                _prototypical_core(q, np.array([label]), protos)

    def test_needs_two_prototypes(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError):
            _prototypical_core(
                random_unit(rng)[None, :], np.array([0]), random_unit(rng)[None, :]
            )

    def test_gradients_match_finite_differences(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            n_q, n_p, dim = 3, 4, 6
            labels = rng.integers(0, n_p, size=n_q)
            x0 = np.concatenate(
                [
                    np.concatenate([random_unit(rng, dim) for _ in range(n_q)]),
                    rng.normal(size=n_p * dim),
                ]
            )

            def evaluate(flat):
                q = flat[: n_q * dim].reshape(n_q, dim)
                r = flat[n_q * dim :].reshape(n_p, dim)
                value, _, dq, dr = _prototypical_core(q, labels, r)
                return value, np.concatenate([dq.ravel(), dr.ravel()])

            assert finite_difference_check(evaluate, x0, eps=1e-5) < 1e-4


class TestGE2ECentroid:
    """ge2e_batch's centroids: the plain bank mean, or with member_pos >= 0
    the mean of the probe's own bank without the probe's row. An identity
    projection makes the embeddings equal to the (unit-norm) features."""

    W = 3.0

    def batch(self, probe, bank0, bank1, member_pos):
        dim = probe.size
        return ge2e_batch(
            np.eye(dim), probe[None, :], np.array([0]), [bank0, bank1],
            np.array([member_pos]), self.W,
        )

    def test_plain_mean_when_probe_absent(self):
        a, b, c = unit([1, 0, 0]), unit([0, 1, 0]), unit([0, 0, 1])
        x = unit([1, 1, 1])
        value, _, _ = self.batch(x, np.stack([a, b]), c[None], -1)
        centroids = np.stack([(a + b) / 2.0, c])[None]
        want = _ge2e_core(x[None, :], np.array([0]), centroids, self.W)[0]
        assert value == pytest.approx(want, abs=1e-12)

    def test_exclude_self_leaves_one(self):
        a, b, c = unit([1, 0, 0]), unit([0, 1, 0]), unit([0, 0, 1])
        got = self.batch(a, np.stack([a, b]), c[None], 0)
        rest = self.batch(a, b[None], c[None], -1)
        assert got[0] == pytest.approx(rest[0], abs=1e-12)
        np.testing.assert_allclose(got[1], rest[1], atol=1e-12)
        assert got[2] == pytest.approx(rest[2], abs=1e-12)

    def test_exclude_self_on_singleton_rejected(self):
        a, c = unit([1, 0, 0]), unit([0, 0, 1])
        with pytest.raises(ValueError):
            self.batch(a, a[None], c[None], 0)

    def test_identity_not_value_equality(self):
        """Membership is the member_pos index: a probe equal in value to a
        bank row is not excluded when member_pos is -1."""
        a, b, c = unit([1, 0, 0]), unit([0, 1, 0]), unit([0, 0, 1])
        twin = a.copy()
        got, _, _ = self.batch(twin, np.stack([a, b]), c[None], -1)
        plain = _ge2e_core(
            twin[None, :], np.array([0]), np.stack([(a + b) / 2.0, c])[None], self.W
        )[0]
        excluded, _, _ = self.batch(twin, np.stack([a, b]), c[None], 0)
        assert got == pytest.approx(plain, abs=1e-12)
        assert abs(got - excluded) > 1e-3

    def test_exclude_self_equals_prototype_of_rest(self):
        """member_pos gives the loss and gradients of a bank with that member
        removed, through a random projection."""
        rng = np.random.default_rng(15)
        projection = rng.normal(size=(5, 9))
        probe = rng.normal(size=(1, 9))
        bank0 = rng.normal(size=(5, 9))
        bank0[2] = probe[0]
        bank1 = rng.normal(size=(4, 9))
        labels = np.array([0])
        got = ge2e_batch(
            projection, probe, labels, [bank0, bank1], np.array([2]), 7.0
        )
        rest = ge2e_batch(
            projection, probe, labels, [np.delete(bank0, 2, axis=0), bank1],
            np.array([-1]), 7.0,
        )
        assert got[0] == pytest.approx(rest[0], abs=1e-12)
        np.testing.assert_allclose(got[1], rest[1], atol=1e-12)
        assert got[2] == pytest.approx(rest[2], abs=1e-12)


class TestGE2ELoss:
    def test_two_centroid_example(self):
        """Cosines [1, 0] at w=1 give p(correct) = e / (e + 1)."""
        x = unit([1.0, 0.0])[None, :]
        centroids = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        _, probs, _, _, _ = _ge2e_core(x, np.array([0]), centroids, 1.0)
        expect = softmax_oracle([1.0, 0.0])
        np.testing.assert_allclose(probs[0], expect, atol=1e-12)
        assert probs[0][0] == pytest.approx(np.e / (np.e + 1.0), abs=1e-12)

    def test_identical_centroids_uniform(self):
        rng = np.random.default_rng(16)
        c = random_unit(rng)
        centroids = np.tile(c, (1, 4, 1))
        value, probs, _, _, _ = _ge2e_core(
            random_unit(rng)[None, :], np.array([2]), centroids, 10.0
        )
        np.testing.assert_allclose(probs[0], 0.25, atol=1e-12)
        assert value == pytest.approx(np.log(4.0), abs=1e-12)

    def test_probabilities_match_direct_softmax(self):
        rng = np.random.default_rng(17)
        cents = np.stack(
            [np.mean([random_unit(rng) for _ in range(3)], axis=0) for _ in range(3)]
        )
        x = random_unit(rng)
        w, shift = 4.0, -1.0
        _, probs, _, _, _ = _ge2e_core(x[None, :], np.array([1]), cents[None], w)
        cosines = [
            float(np.dot(x, c) / (np.linalg.norm(x) * np.linalg.norm(c))) for c in cents
        ]
        expect = softmax_oracle([w * c + shift for c in cosines])
        np.testing.assert_allclose(probs[0], expect, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(18)
        probes = np.stack([random_unit(rng) for _ in range(3)])
        labels = np.arange(3)
        centroids = rng.normal(size=(3, 3, 8))
        w = 10.0
        base = _ge2e_core(probes, labels, centroids, w)
        perm = np.array([2, 0, 1])
        moved = _ge2e_core(probes, np.argsort(perm)[labels], centroids[:, perm], w)
        assert moved[0] == pytest.approx(base[0], abs=1e-12)
        np.testing.assert_allclose(moved[1], base[1][:, perm], atol=1e-12)
        np.testing.assert_allclose(moved[2], base[2], atol=1e-12)
        np.testing.assert_allclose(moved[3], base[3][:, perm], atol=1e-12)
        assert moved[4] == pytest.approx(base[4], abs=1e-12)

    def test_gradients_match_finite_differences(self):
        """Probe (through the unit-norm chain) and w gradients at w = 10, and
        the centroid gradients as well at w = 5: at w = 10 some centroid
        gradient coordinates are ~1e-8, below the central difference's
        roundoff."""
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            n, n_spk, dim = 3, 3, 6
            labels = rng.integers(0, n_spk, size=n)
            cents = rng.normal(size=n * n_spk * dim)
            x = np.concatenate([random_unit(rng, dim) for _ in range(n)])

            def evaluate(flat, with_centroids):
                split = flat.size - 1 - (cents.size if with_centroids else 0)
                c = flat[split:-1] if with_centroids else cents
                value, _, dx, dc, dw = ge2e_on_sphere(
                    flat[:split].reshape(n, dim), labels, c.reshape(n, n_spk, dim), flat[-1]
                )
                extra = [dc.ravel()] if with_centroids else []
                return value, np.concatenate([dx.ravel(), *extra, [dw]])

            probe_w = np.concatenate([x, [10.0]])
            every = np.concatenate([x, cents, [5.0]])
            assert finite_difference_check(lambda f: evaluate(f, False), probe_w) < 1e-4
            assert finite_difference_check(lambda f: evaluate(f, True), every) < 1e-4


class TestCELoss:
    def test_uniform_logits(self):
        value, probs, _ = _ce_core(np.zeros((3, 10)), np.array([3, 0, 9]))
        assert value == pytest.approx(np.log(10.0), abs=1e-12)
        np.testing.assert_allclose(probs, 0.1, atol=1e-15)

    def test_saturated_logits(self):
        logits = np.zeros((1, 5))
        logits[0, 0] = 20.0
        assert _ce_core(logits, np.array([0]))[0] == pytest.approx(0.0, abs=1e-8)

    def test_random_logits_match_log_sum_exp_oracle(self):
        rng = np.random.default_rng(19)
        logits = rng.normal(scale=3.0, size=(10, 7))
        labels = rng.integers(0, 7, size=10)
        value, probs, _ = _ce_core(logits, labels)
        expect = np.mean([nll_oracle(row, int(k)) for row, k in zip(logits, labels)])
        assert value == pytest.approx(expect, abs=1e-12)
        for row, got in zip(logits, probs):
            np.testing.assert_allclose(got, softmax_oracle(row), atol=1e-12)
        for row, k in zip(logits, labels):
            one = _ce_core(row[None, :], np.array([k]))[0]
            assert one == pytest.approx(nll_oracle(row, int(k)), abs=1e-12)

    def test_label_out_of_range(self):
        for label in (4, -1):
            with pytest.raises(ValueError):
                _ce_core(np.zeros((1, 4)), np.array([label]))
        with pytest.raises(ValueError):
            _ce_core(np.zeros((1, 1)), np.array([0]))

    def test_gradients_match_finite_differences(self):
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            labels = rng.integers(0, 6, size=3)
            x0 = rng.normal(size=18)

            def evaluate(flat):
                value, _, grad = _ce_core(flat.reshape(3, 6), labels)
                return value, grad.ravel()

            assert finite_difference_check(evaluate, x0, eps=1e-5) < 1e-4


class TestMultiTask:
    def test_beta_zero_is_mean_recon(self):
        assert multitask_loss([-10.0, -12.0], 99.0, 0.0) == -11.0

    def test_table_default_example(self):
        assert multitask_loss([-10.0, -12.0], 5.0, 0.2) == pytest.approx(-10.0)

    def test_single_recon(self):
        assert multitask_loss([-13.0], 2.0, 0.1) == pytest.approx(-12.8)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            multitask_loss([], 1.0, 0.2)


class TestFiniteDifferenceCheck:
    def test_quadratic_is_exact(self):
        rng = np.random.default_rng(20)
        a = rng.normal(size=(5, 5))
        a = a + a.T
        b = rng.normal(size=5)

        def evaluate(x):
            return float(x @ a @ x + b @ x), 2.0 * a @ x + b

        assert finite_difference_check(evaluate, rng.normal(size=5), eps=1e-3) < 1e-8

    def test_detects_wrong_gradient(self):
        def evaluate(x):
            return float(np.sum(x**2)), 2.0 * x + 0.5

        assert finite_difference_check(evaluate, np.ones(4), eps=1e-4) > 0.1

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            finite_difference_check(lambda x: (0.0, x), np.ones(2), eps=0.5)

    def test_nonfinite_loss_reported(self):
        def evaluate(x):
            if np.any(x > 1.0):
                return np.nan, x
            return float(np.sum(x)), np.ones_like(x)

        with pytest.raises(FloatingPointError):
            finite_difference_check(evaluate, np.ones(2), eps=1e-3)

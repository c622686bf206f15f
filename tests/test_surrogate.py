import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softmpc import dynamics as dyn
from softmpc import surrogate
from softmpc.dynamics import VehicleParams
from softmpc.ocp import HorizonConfig
from softmpc.path import straight_path
from softmpc.surrogate import (DenseNet, LipschitzBudget, SurrogateModel,
                               certify, load_model, max_state_step,
                               save_model, train_classifier, train_mode_model,
                               train_regressor)


def _toy_dataset(rng, n=400, d=6):
    thetas = rng.uniform(-2.0, 2.0, (n, d))
    # slack needed grows with the first coordinate shortfall
    needed = np.maximum(thetas[:, 0] + 0.5 * thetas[:, 1], 0.0)
    feasible = needed < 1.5
    slacks = np.where(feasible, needed, np.nan)[:, None]
    return thetas, feasible, slacks


def test_constant_target_learnable():
    rng = np.random.default_rng(0)
    thetas = rng.uniform(-1, 1, (300, 4))
    slacks = np.full((300, 1), 0.7)
    feasible = np.ones(300, dtype=bool)
    budget = LipschitzBudget(max_disturbance=10.0, max_state_step=1.0,
                             ceilings=np.array([5.0]))
    net, shift, scale, eps, stats = train_regressor(
        thetas, slacks, feasible, budget, epochs=2000, seed=1)
    assert eps <= 1e-3


def test_certified_bound_respects_budget():
    rng = np.random.default_rng(2)
    thetas, feasible, slacks = _toy_dataset(rng)
    budget = LipschitzBudget(max_disturbance=2.0, max_state_step=0.5,
                             ceilings=np.array([1.0]))  # tight cap: 0.4
    net, shift, scale, eps, stats = train_regressor(
        thetas, slacks, feasible, budget, epochs=400, seed=3)
    lip = net.lipschitz_per_output(scale)
    assert np.all(lip <= budget.caps() * (1 + 1e-9))


def test_sampled_quotient_never_exceeds_certificate():
    rng = np.random.default_rng(4)
    thetas, feasible, slacks = _toy_dataset(rng)
    budget = LipschitzBudget(max_disturbance=3.0, max_state_step=1.0,
                             ceilings=np.array([4.0]))
    model = train_mode_model("T", ("c0",), np.array([4.0]), thetas, feasible,
                             slacks, budget, epochs=400, seed=5)
    report = certify(model, n_pairs=100_000, seed=6)
    assert report["certified"]
    assert report["sampled_within_bound"]


def test_certify_examples_scaled_identity():
    # single linear layer 2*I: spectral bound per output is 2
    net = DenseNet([2.0 * np.eye(3)], [np.zeros(3)])
    model = SurrogateModel(
        mode_name="x", channels=("a", "b", "c"),
        regressor=net, classifier=DenseNet([np.ones((1, 3))], [np.zeros(1)]),
        input_shift=np.zeros(3), input_scale=np.ones(3),
        budget=LipschitzBudget(2.0, 1.0, np.full(3, 9.0)))   # caps 3
    rep = certify(model)
    np.testing.assert_allclose(rep["lipschitz"], 2.0)
    assert rep["certified"]
    model.budget = LipschitzBudget(8.0, 1.0, np.full(3, 9.0))   # caps 1
    rep = certify(model)
    assert not rep["certified"]
    assert rep["violations"] == ["a", "b", "c"]


def test_two_layer_product_rule():
    rng = np.random.default_rng(7)
    W1 = rng.normal(0, 1, (8, 5))
    W2 = rng.normal(0, 1, (2, 8))
    net = DenseNet([W1, W2], [np.zeros(8), np.zeros(2)])
    lip = net.lipschitz_per_output(np.ones(5))
    s1 = np.linalg.svd(W1, compute_uv=False)[0]
    rows = np.linalg.norm(W2, axis=1)
    np.testing.assert_allclose(lip, rows * s1, rtol=1e-12)


def _summed_magnitude(net, x):
    """Per sample, the largest |W| |h| + |b| over the layers: the size of
    the sums whose rounding the outputs carry."""
    acts, _ = net.forward_cached(x)
    return np.max([np.max(np.abs(h) @ np.abs(W).T + np.abs(b), axis=1)
                   for h, W, b in zip(acts, net.weights, net.biases)], axis=0)


# width-1 nets whose one ReLU stays in its linear piece on a near pair: the
# exact quotient equals the bound, and the rounding of outputs of size 1.65
# (the first), or of sums of size 2 behind an output of 0.03 (the others),
# put the computed one above it
@example(depth=2, d_in=1, d_out=2, width=1, log_scale=[0.0] * 5,
         seed=11384170)
@example(depth=3, d_in=1, d_out=3, width=1, log_scale=[0.0] * 5,
         seed=3236254242)
@example(depth=2, d_in=1, d_out=3, width=1, log_scale=[0.0] * 5,
         seed=1483386818)
@given(depth=st.integers(1, 3), d_in=st.integers(1, 5), d_out=st.integers(1, 3),
       width=st.integers(1, 8),
       log_scale=st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_lipschitz_bound_holds_for_every_depth(depth, d_in, d_out, width,
                                               log_scale, seed):
    # one formula for every depth: a one-layer net has no hidden layers, so
    # its spectral product is 1.0 and the bound is the row norms
    rng = np.random.default_rng(seed)
    net = DenseNet.init(rng, (d_in, *[width] * (depth - 1), d_out))
    net.biases = [rng.normal(0.0, 1.0, b.shape) for b in net.biases]
    scale = 10.0 ** np.array(log_scale[:d_in])
    lip = net.lipschitz_per_output(scale)
    if depth == 1:
        assert np.array_equal(
            lip, np.linalg.norm(net.weights[0] / scale[None, :], axis=1))
    # far pairs and near pairs, in raw input units
    a = scale * rng.normal(0.0, 2.0, (400, d_in))
    b = np.concatenate([scale * rng.normal(0.0, 2.0, (200, d_in)),
                        a[200:] + scale * rng.normal(0.0, 1e-3, (200, d_in))])
    dist = np.linalg.norm(a - b, axis=1)
    quot = (np.abs(net.forward(a / scale) - net.forward(b / scale))
            / dist[:, None])
    # each computed output is off by a few ulps of the sums that made it,
    # which the difference of a near pair keeps, divided by its distance
    summed = np.maximum(_summed_magnitude(net, a / scale),
                        _summed_magnitude(net, b / scale))
    rounding = 8.0 * np.spacing(summed) / dist
    assert np.all(quot <= lip * (1.0 + 1e-9) + rounding[:, None])


def test_rescale_uniform_scales_function():
    rng = np.random.default_rng(8)
    net = DenseNet.init(rng, (4, 16, 16, 2))
    x = rng.normal(0, 1, (20, 4))
    before = net.forward(x)
    net.rescale_uniform(0.25)
    after = net.forward(x)
    np.testing.assert_allclose(after, 0.25 * before, rtol=1e-10)


def test_classifier_separable_and_calibrated():
    rng = np.random.default_rng(9)
    thetas, feasible, slacks = _toy_dataset(rng, n=600)
    shift, scale = surrogate._standardize(thetas)
    net, threshold, stats = train_classifier(thetas, feasible, shift, scale,
                                             seed=10)
    assert stats["accuracy_val"] >= 0.9
    assert stats["confusion_val"]["true_infeasible_pred_feasible"] == 0


def test_classifier_requires_both_classes():
    thetas = np.zeros((10, 3))
    with pytest.raises(ValueError, match="both classes"):
        train_classifier(thetas, np.ones(10, dtype=bool),
                         *surrogate._standardize(thetas))


def test_label_flip_flips_predictions():
    rng = np.random.default_rng(11)
    thetas, feasible, _ = _toy_dataset(rng, n=500)
    shift, scale = surrogate._standardize(thetas)
    net_a, thr_a, _ = train_classifier(thetas, feasible, shift, scale,
                                       epochs=500, seed=12)
    net_b, thr_b, _ = train_classifier(thetas, ~feasible, shift, scale,
                                       epochs=500, seed=12)
    xn = (thetas - shift) / scale
    score_a = net_a.forward(xn)[:, 0]
    score_b = net_b.forward(xn)[:, 0]
    agree = np.mean((score_a > 0) == (score_b < 0))
    assert agree > 0.95


def test_infer_clamps_and_is_deterministic():
    rng = np.random.default_rng(13)
    thetas, feasible, slacks = _toy_dataset(rng)
    budget = LipschitzBudget(max_disturbance=3.0, max_state_step=1.0,
                             ceilings=np.array([0.1]))  # low ceiling: clamps
    model = train_mode_model("T", ("c0",), np.array([0.1]), thetas, feasible,
                             slacks, budget, epochs=300, seed=14)
    theta = thetas[0]
    s1, f1, score1 = model.infer(theta)
    s2, f2, score2 = model.infer(theta)
    np.testing.assert_array_equal(s1, s2)
    assert f1 == f2
    assert score1 == score2 == model.classify_score(theta[None, :])[0]
    assert f1 == bool(score1 >= model.threshold)
    assert np.all(s1 <= 0.1 + 1e-15)
    assert np.all(s1 >= 0.0)
    # the batch path gives every bit of the single-input normalize, clip and
    # sigmoid steps
    for theta in thetas[:50]:
        z = model.normalize(theta)
        slack = np.clip(model.regressor.forward(z[None, :])[0], 0.0,
                        model.ceilings)
        score = 0.5 * (1.0 + np.tanh(0.5 * model.classifier.forward(
            z[None, :])[0, 0]))
        s, f, sc = model.infer(theta)
        assert np.array_equal(s, slack)
        assert np.array_equal(sc, score) and type(sc) is type(score)
        assert f == bool(score >= model.threshold)


def test_training_point_error_within_eps():
    rng = np.random.default_rng(15)
    thetas, feasible, slacks = _toy_dataset(rng, n=500)
    budget = LipschitzBudget(max_disturbance=3.0, max_state_step=1.0,
                             ceilings=np.array([4.0]))
    model = train_mode_model("T", ("c0",), np.array([4.0]), thetas, feasible,
                             slacks, budget, epochs=1200, seed=16)
    # a feasible training sample with zero target stays within the margin
    zero_idx = np.where(feasible & (slacks[:, 0] == 0.0))[0]
    assert zero_idx.size > 0
    pred = model.predict_slack(thetas[zero_idx[:20]])
    assert float(np.max(pred)) <= model.eps + 1e-9


def test_ceilings_must_be_the_budget_ceilings():
    rng = np.random.default_rng(19)
    thetas, feasible, slacks = _toy_dataset(rng, n=40)
    budget = LipschitzBudget(max_disturbance=3.0, max_state_step=1.0,
                             ceilings=np.array([4.0]))
    with pytest.raises(ValueError, match="disagree"):
        train_mode_model("T", ("c0",), np.array([5.0]), thetas, feasible,
                         slacks, budget, epochs=10, seed=0)


def test_model_json_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    thetas, feasible, slacks = _toy_dataset(rng)
    budget = LipschitzBudget(max_disturbance=3.0, max_state_step=1.0,
                             ceilings=np.array([4.0]))
    model = train_mode_model("E9", ("c0",), np.array([4.0]), thetas, feasible,
                             slacks, budget, epochs=200, seed=18)
    fname = str(tmp_path / "m.json")
    save_model(model, fname)
    loaded = load_model(fname)
    assert loaded.mode_name == "E9"
    assert loaded.threshold == model.threshold
    assert loaded.eps == model.eps
    x = rng.normal(0, 1, (5, thetas.shape[1]))
    np.testing.assert_array_equal(loaded.predict_slack(x), model.predict_slack(x))
    np.testing.assert_array_equal(loaded.classify_score(x), model.classify_score(x))
    # byte-identical re-save
    fname2 = str(tmp_path / "m2.json")
    save_model(loaded, fname2)
    assert (tmp_path / "m.json").read_bytes() == (tmp_path / "m2.json").read_bytes()


def test_admissible_disturbance_budget():
    budget = LipschitzBudget(max_disturbance=30.0, max_state_step=4.0,
                             ceilings=np.array([30.0, 6.0]))
    caps = budget.caps()
    model = SurrogateModel(
        mode_name="x", channels=("a", "b"),
        regressor=DenseNet([np.eye(2)], [np.zeros(2)]),
        classifier=DenseNet([np.ones((1, 2))], [np.zeros(1)]),
        input_shift=np.zeros(2), input_scale=np.ones(2),
        budget=budget, eps=0.5)
    got = model.admissible_disturbance(state_step_norm=2.0)
    expected = min((30.0 - 0.5) / caps[0], (6.0 - 0.5) / caps[1]) - 2.0
    assert got == pytest.approx(expected)


def test_max_state_step_takes_every_draw():
    # the bound is the largest one-step motion over all n_samples draws,
    # drawn in the order of one state and one input at a time (it used to
    # take n_samples // 100 of them: 3 here)
    p, horizon, n = VehicleParams(), HorizonConfig(), 300
    rng = np.random.default_rng(11)
    path = straight_path(2.0 * p.v_max * horizon.t_s + 100.0)
    steps = []
    for _ in range(n):
        x = dyn.state(s=rng.uniform(1.0, 50.0),
                      e_y=rng.uniform(-p.e_y_max, p.e_y_max),
                      e_psi=rng.uniform(-p.e_psi_max, p.e_psi_max),
                      delta=rng.uniform(-p.delta_max, p.delta_max),
                      alpha=rng.uniform(-p.alpha_max, p.alpha_max),
                      v=rng.uniform(0.0, p.v_max),
                      a=rng.uniform(p.accel_min, p.accel_max))
        u = np.array([rng.uniform(-p.delta_max, p.delta_max),
                      rng.uniform(p.accel_min, p.accel_max)])
        x_next = dyn.f_discrete(x, u, path, p, horizon.t_s)
        steps.append(np.linalg.norm(x_next - x))
    # the vectorized sin, cos and tan may differ from the scalar ones in
    # the last bit
    assert max_state_step(p, horizon, p.v_max, n_samples=n, seed=11) == \
        pytest.approx(max(steps), rel=1e-12)
    assert max(steps) > max(steps[:3])

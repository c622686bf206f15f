"""Learned slack surrogates: regressor, feasibility classifier, certificates.

Per relaxation mode two dense feed-forward networks are trained on oracle
labels: a slack regressor fitted on the feasible samples and a feasibility
classifier fitted on all samples. Activations are rectifiers, so the product
of layer spectral norms (with the input normalization folded in) is a global
Lipschitz upper bound per output; after training the layers are rescaled
uniformly until that bound meets the physical budget, and the surviving
validation error is recorded as the additive inference margin.
"""
from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_HIDDEN = (64, 64)
DEFAULT_EPOCHS = 2000
# full-batch gradient descent: initial rate, momentum, weight decay, and the
# fraction of the initial rate the exponential decay reaches at the end
LEARNING_RATE = 3e-3
MOMENTUM = 0.9
WEIGHT_DECAY = 1e-6
LR_FLOOR_FRAC = 0.01


# ---------------------------------------------------------------------------
# dense network in plain arrays
# ---------------------------------------------------------------------------


class DenseNet:
    """Rectifier MLP with explicit weights; deterministic forward pass."""

    def __init__(self, weights, biases):
        self.weights = [np.asarray(W, dtype=float) for W in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]

    @staticmethod
    def init(rng: np.random.Generator, dims) -> "DenseNet":
        weights, biases = [], []
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            scale = math.sqrt(2.0 / d_in)
            weights.append(rng.normal(0.0, scale, (d_out, d_in)))
            biases.append(np.zeros(d_out))
        return DenseNet(weights, biases)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_cached(x)[0][-1]

    def forward_cached(self, x):
        """(activations, pre-activations) of every layer; the activations
        start with the input and end with the output."""
        acts = [x]
        h = x
        last = self.n_layers - 1
        pre = []
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ W.T + b
            pre.append(h)
            if i < last:
                h = np.maximum(h, 0.0)
            acts.append(h)
        return acts, pre

    def backward(self, acts, pre, grad_out):
        """Gradients of a loss wrt weights/biases given d(loss)/d(output)."""
        gW = [None] * self.n_layers
        gb = [None] * self.n_layers
        g = grad_out
        for i in range(self.n_layers - 1, -1, -1):
            gW[i] = g.T @ acts[i]
            gb[i] = g.sum(axis=0)
            if i > 0:
                g = (g @ self.weights[i]) * (pre[i - 1] > 0.0)
        return gW, gb

    def lipschitz_per_output(self, input_scale: np.ndarray) -> np.ndarray:
        """Upper bound on each output's Lipschitz constant wrt raw inputs.

        Rectifiers are 1-Lipschitz, so the product of spectral norms bounds
        the composition; the first layer absorbs the normalization diagonal
        and the last layer is taken row-wise for per-output bounds (a net
        of one layer has no hidden layers, and their product is 1.0).
        """
        weights = [self.weights[0] / input_scale[None, :], *self.weights[1:]]
        prod = 1.0
        for W in weights[:-1]:
            prod *= float(np.linalg.svd(W, compute_uv=False)[0])
        return np.linalg.norm(weights[-1], axis=1) * prod

    def rescale_uniform(self, factor: float) -> None:
        """Scale the realized function by `factor` keeping layer balance.

        Each weight matrix is scaled by factor^(1/L); for rectifier networks
        the whole function scales by `factor` when biases at depth k carry
        the cumulative factor^(k/L).
        """
        c = factor ** (1.0 / self.n_layers)
        cum = 1.0
        for i in range(self.n_layers):
            cum *= c
            self.weights[i] = self.weights[i] * c
            self.biases[i] = self.biases[i] * cum


def _fit(x, y, grad_fn, hidden, epochs, seed):
    """A rectifier net from `x` to `y`: He-initialized from `seed`, then
    full-batch gradient descent with momentum and exponential lr decay."""
    net = DenseNet.init(np.random.default_rng(seed),
                        (x.shape[1], *hidden, y.shape[1]))
    vel_W = [np.zeros_like(W) for W in net.weights]
    vel_b = [np.zeros_like(b) for b in net.biases]
    n = x.shape[0]
    decay = LR_FLOOR_FRAC ** (1.0 / max(epochs - 1, 1))
    rate = LEARNING_RATE
    for _ in range(epochs):
        acts, pre = net.forward_cached(x)
        g_out = grad_fn(acts[-1], y) / n
        gW, gb = net.backward(acts, pre, g_out)
        for i in range(net.n_layers):
            gW[i] += WEIGHT_DECAY * net.weights[i]
            vel_W[i] = MOMENTUM * vel_W[i] - rate * gW[i]
            vel_b[i] = MOMENTUM * vel_b[i] - rate * gb[i]
            net.weights[i] += vel_W[i]
            net.biases[i] += vel_b[i]
        rate *= decay
    return net


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------


@dataclass
class LipschitzBudget:
    """Physical sensitivity budget for the regressor outputs.

    max_disturbance bounds the norm of the stacked prediction drift the
    relaxation must absorb; max_state_step the one-step state motion. The
    per-output cap is ceiling / (max_disturbance + max_state_step).
    """
    max_disturbance: float
    max_state_step: float
    ceilings: np.ndarray

    def __post_init__(self):
        self.ceilings = np.asarray(self.ceilings, dtype=float)

    def caps(self) -> np.ndarray:
        denom = self.max_disturbance + self.max_state_step
        if denom <= 0.0:
            raise ValueError("budget denominators must be positive")
        return self.ceilings / denom


@dataclass
class SurrogateModel:
    """Regressor + classifier pair with normalization and certificate; the
    budget holds the slack ceilings and the Lipschitz caps L-bar (caps())."""
    mode_name: str
    channels: tuple
    regressor: DenseNet
    classifier: DenseNet
    input_shift: np.ndarray
    input_scale: np.ndarray
    budget: LipschitzBudget
    eps: float = 0.0                    # validation max abs error
    threshold: float = 0.5              # infeasibility score cutoff
    seed: int = 0
    train_history: dict = field(default_factory=dict)

    @property
    def ceilings(self) -> np.ndarray:
        return self.budget.ceilings

    def normalize(self, theta: np.ndarray) -> np.ndarray:
        return (theta - self.input_shift) / self.input_scale

    def infer(self, theta: np.ndarray):
        """(clamped slack, infeasibility flag, classifier score) for one
        input; the flag is score >= threshold."""
        thetas = np.asarray(theta, dtype=float)[None]
        score = self.classify_score(thetas)[0]
        return (self.predict_slack(thetas)[0], bool(score >= self.threshold),
                score)

    def classify_score(self, thetas: np.ndarray) -> np.ndarray:
        return _sigmoid(self.classifier.forward(self.normalize(thetas))[:, 0])

    def predict_slack(self, thetas: np.ndarray) -> np.ndarray:
        raw = self.regressor.forward(self.normalize(thetas))
        return np.clip(raw, 0.0, self.ceilings[None, :])

    def admissible_disturbance(self, state_step_norm: float) -> float:
        """Online drift budget from the certificate (worst-output rule)."""
        return float(np.min((self.ceilings - self.eps) / self.budget.caps())
                     - state_step_norm)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _standardize(x):
    """Per-input (shift, scale) to zero mean, unit deviation (1 if constant)."""
    scale = x.std(axis=0)
    return x.mean(axis=0), np.where(scale < 1e-9, 1.0, scale)


def _splits(n: int, seed: int):
    """Seeded 80/10/10 (train, validation, test) index split. A set too
    small for a validation share validates on the first tenth (at least
    one) of the training samples."""
    rng = np.random.default_rng(seed + 101)
    order = rng.permutation(n)
    n_train = int(round(0.8 * n))
    n_val = int(round(0.1 * n))
    i_tr, i_va = order[:n_train], order[n_train:n_train + n_val]
    if i_va.size == 0:
        i_va = i_tr[: max(1, i_tr.size // 10)]
    return i_tr, i_va, order[n_train + n_val:]


def train_regressor(thetas, slacks, feasible, budget: LipschitzBudget,
                    hidden=DEFAULT_HIDDEN, epochs=DEFAULT_EPOCHS, seed=0):
    """Fit the slack regressor on feasible samples and certify it.

    Returns (net, shift, scale, eps, stats). eps is the validation max
    abs error measured after the certification rescale.
    """
    mask = np.asarray(feasible, dtype=bool)
    if not np.any(mask):
        raise ValueError("regressor needs at least one feasible sample")
    x = np.asarray(thetas, dtype=float)[mask]
    y = np.asarray(slacks, dtype=float)[mask]
    caps = budget.caps()
    if np.any(caps <= 0.0):
        raise ValueError("Lipschitz caps must be positive")

    shift, scale = _standardize(x)
    xn = (x - shift) / scale
    i_tr, i_va, i_te = _splits(x.shape[0], seed)

    # standardized targets condition the fit; folded back into the last
    # layer afterwards so the network maps to physical units
    y_shift = y[i_tr].mean(axis=0)
    y_scale = np.maximum(y[i_tr].std(axis=0), 1e-9)
    yn = (y - y_shift) / y_scale

    def grad_mse(out, target):
        return 2.0 * (out - target)

    net = _fit(xn[i_tr], yn[i_tr], grad_mse, hidden, epochs, seed)
    net.weights[-1] = net.weights[-1] * y_scale[:, None]
    net.biases[-1] = net.biases[-1] * y_scale + y_shift

    # certification: uniform rescale until the spectral product obeys the
    # cap, then recenter the output bias on the training targets (biases do
    # not enter the bound, so the certificate survives the recentering)
    lip = net.lipschitz_per_output(scale)
    worst = float(np.max(lip / caps))
    if worst > 1.0:
        net.rescale_uniform(1.0 / worst)
        net.biases[-1] += (y[i_tr].mean(axis=0)
                           - net.forward(xn[i_tr]).mean(axis=0))
        lip = net.lipschitz_per_output(scale)

    val_pred = np.clip(net.forward(xn[i_va]), 0.0, budget.ceilings)
    eps = float(np.max(np.abs(val_pred - y[i_va])))
    test_exceed = 0.0
    if i_te.size:
        te_pred = np.clip(net.forward(xn[i_te]), 0.0, budget.ceilings)
        errs = np.abs(te_pred - y[i_te])
        test_exceed = float(np.mean(np.max(errs, axis=1) > eps + 1e-12))
    stats = {
        "n_train": int(i_tr.size), "n_val": int(i_va.size),
        "n_test": int(i_te.size),
        "rescale": 1.0 / worst if worst > 1.0 else 1.0,
        "lipschitz": [float(v) for v in lip],
        "caps": [float(v) for v in caps],
        "eps": eps,
        "test_exceed_rate": test_exceed,
    }
    return net, shift, scale, eps, stats


def train_classifier(thetas, feasible, shift, scale, hidden=DEFAULT_HIDDEN,
                     epochs=DEFAULT_EPOCHS, seed=0):
    """Fit the infeasibility classifier on inputs standardized by (shift,
    scale), the regressor's; calibrate the score threshold so no validation
    sample is predicted feasible while actually infeasible.

    Returns (net, threshold, stats)."""
    x = np.asarray(thetas, dtype=float)
    labels = (~np.asarray(feasible, dtype=bool)).astype(float)  # 1 = infeasible
    if labels.min() == labels.max():
        raise ValueError("classifier needs both classes present")
    xn = (x - shift) / scale
    seed += 7       # a split and an initialization apart from the regressor's
    i_tr, i_va, i_te = _splits(x.shape[0], seed)

    def grad_bce(out, target):
        return _sigmoid(out) - target

    net = _fit(xn[i_tr], labels[i_tr][:, None], grad_bce, hidden, epochs, seed)

    score_va = _sigmoid(net.forward(xn[i_va])[:, 0])
    infeas_va = labels[i_va] > 0.5
    threshold = 0.5
    if np.any(infeas_va):
        # every true-infeasible sample must score at or above the cutoff
        min_inf = float(np.min(score_va[infeas_va]))
        threshold = min(0.5, min_inf * (1.0 - 1e-9))
    pred_va = score_va >= threshold
    confusion = {
        "true_feasible_pred_feasible": int(np.sum(~infeas_va & ~pred_va)),
        "true_feasible_pred_infeasible": int(np.sum(~infeas_va & pred_va)),
        "true_infeasible_pred_feasible": int(np.sum(infeas_va & ~pred_va)),
        "true_infeasible_pred_infeasible": int(np.sum(infeas_va & pred_va)),
    }
    stats = {"threshold": threshold, "confusion_val": confusion,
             "accuracy_val": float(np.mean(pred_va == infeas_va)),
             "n_train": int(i_tr.size), "n_val": int(i_va.size),
             "n_test": int(i_te.size)}
    return net, threshold, stats


def train_mode_model(mode_name, channels, ceilings, thetas, feasible, slacks,
                     budget: LipschitzBudget, hidden=DEFAULT_HIDDEN,
                     epochs=DEFAULT_EPOCHS, seed=0) -> SurrogateModel:
    """Train the regressor/classifier pair for one relaxation mode; the
    ceilings must be the budget's."""
    if not np.array_equal(np.asarray(ceilings, dtype=float), budget.ceilings):
        raise ValueError(f"ceilings {list(ceilings)} disagree with the "
                         f"budget's {list(budget.ceilings)}")
    reg, shift, scale, eps, reg_stats = train_regressor(
        thetas, slacks, feasible, budget, hidden, epochs, seed)
    clf, threshold, clf_stats = train_classifier(
        thetas, feasible, shift, scale, hidden, epochs, seed)
    return SurrogateModel(
        mode_name=mode_name, channels=tuple(channels),
        regressor=reg, classifier=clf,
        input_shift=shift, input_scale=scale, budget=budget,
        eps=eps, threshold=threshold, seed=seed,
        train_history={"regressor": reg_stats, "classifier": clf_stats})


def certify(model: SurrogateModel, n_pairs: int = 0, seed: int = 0) -> dict:
    """Re-derive the spectral bound and compare against the budget caps.

    Optionally samples random input pairs to confirm the bound empirically
    (a sampled quotient can only ever fall below a valid bound).
    """
    lip = model.regressor.lipschitz_per_output(model.input_scale)
    caps = model.budget.caps()
    within = lip <= caps * (1.0 + 1e-9)
    report = {
        "mode": model.mode_name,
        "lipschitz": [float(v) for v in lip],
        "caps": [float(v) for v in caps],
        "certified": bool(np.all(within)),
        "eps": model.eps,
        "violations": [ch for ch, ok in zip(model.channels, within) if not ok],
    }
    if n_pairs > 0:
        rng = np.random.default_rng(seed)
        d = model.input_shift.size
        a = model.input_shift + model.input_scale * rng.normal(0, 2.0, (n_pairs, d))
        b = model.input_shift + model.input_scale * rng.normal(0, 2.0, (n_pairs, d))
        fa = model.regressor.forward(model.normalize(a))
        fb = model.regressor.forward(model.normalize(b))
        dist = np.linalg.norm(a - b, axis=1)
        dist[dist < 1e-12] = 1e-12
        quot = np.abs(fa - fb) / dist[:, None]
        report["sampled_max_quotient"] = [float(v) for v in np.max(quot, axis=0)]
        report["sampled_within_bound"] = bool(
            np.all(np.max(quot, axis=0) <= lip * (1.0 + 1e-9)))
    return report


def max_state_step(params, horizon, v_max: float, n_samples: int = 100_000,
                   seed: int = 0) -> float:
    """Sampled bound on the one-step state motion norm inside the box: the
    largest |x+ - x| over n_samples uniform draws of a state and an input,
    each stepped once with the model's RK4 step.

    Each draw takes its nine values in the order (s, e_y, e_psi, delta,
    alpha, v, a, delta_sp, a_req), from one generator call for all draws;
    the stream is that of one rng.uniform call per value. Used for the
    budget denominator; a sampled maximum under-approximates the true
    supremum, which the certificate report notes.
    """
    from . import dynamics as dyn
    from .path import straight_path
    p = params
    lo = (1.0, -p.e_y_max, -p.e_psi_max, -p.delta_max, -p.alpha_max, 0.0,
          p.accel_min, -p.delta_max, p.accel_min)
    hi = (50.0, p.e_y_max, p.e_psi_max, p.delta_max, p.alpha_max, v_max,
          p.accel_max, p.delta_max, p.accel_max)
    draws = np.random.default_rng(seed).uniform(lo, hi, (n_samples, len(lo)))
    xs, us = draws[:, :dyn.NX], draws[:, dyn.NX:]
    path = straight_path(2.0 * v_max * horizon.t_s + 100.0)
    x_next = dyn.rk4_steps(xs, us, path, p, horizon.t_s)
    return float(np.max(np.linalg.norm(x_next - xs, axis=1)))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _enc(arr: np.ndarray) -> dict:
    a = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _dec(blob: dict) -> np.ndarray:
    data = base64.b64decode(blob["data"])
    return np.frombuffer(data, dtype="<f8").reshape(blob["shape"]).copy()


def _enc_net(net: DenseNet) -> dict:
    return {"weights": [_enc(W) for W in net.weights],
            "biases": [_enc(b) for b in net.biases]}


def _dec_net(blob: dict) -> DenseNet:
    return DenseNet([_dec(W) for W in blob["weights"]],
                    [_dec(b) for b in blob["biases"]])


def save_model(model: SurrogateModel, filename: str) -> None:
    lipschitz = model.regressor.lipschitz_per_output(model.input_scale)
    doc = {
        "format": "softmpc-surrogate-v1",
        "mode": model.mode_name,
        "channels": list(model.channels),
        "ceilings": [float(v) for v in model.ceilings],
        "eps": model.eps,
        "threshold": model.threshold,
        "seed": model.seed,
        "input_shift": _enc(model.input_shift),
        "input_scale": _enc(model.input_scale),
        "regressor": _enc_net(model.regressor),
        "classifier": _enc_net(model.classifier),
        "certificate": {
            "lipschitz": [float(v) for v in lipschitz],
            "caps": [float(v) for v in model.budget.caps()],
            "max_disturbance": model.budget.max_disturbance,
            "max_state_step": model.budget.max_state_step,
        },
        "train_history": model.train_history,
    }
    with open(filename, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def load_model(filename: str) -> SurrogateModel:
    with open(filename) as fh:
        doc = json.load(fh)
    if doc.get("format") != "softmpc-surrogate-v1":
        raise ValueError(f"unrecognized model file {filename}")
    cert = doc["certificate"]
    budget = LipschitzBudget(max_disturbance=cert["max_disturbance"],
                             max_state_step=cert["max_state_step"],
                             ceilings=doc["ceilings"])
    return SurrogateModel(
        mode_name=doc["mode"], channels=tuple(doc["channels"]),
        regressor=_dec_net(doc["regressor"]),
        classifier=_dec_net(doc["classifier"]),
        input_shift=_dec(doc["input_shift"]),
        input_scale=_dec(doc["input_scale"]), budget=budget,
        eps=float(doc["eps"]), threshold=float(doc["threshold"]),
        seed=int(doc["seed"]),
        train_history=doc.get("train_history", {}))

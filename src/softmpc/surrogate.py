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
import time
from dataclasses import dataclass, field

import numpy as np

DEFAULT_HIDDEN = (64, 64)
DEFAULT_EPOCHS = 2000


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
        h = x
        last = self.n_layers - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ W.T + b
            if i < last:
                h = np.maximum(h, 0.0)
        return h

    def forward_cached(self, x):
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
        and the last layer is taken row-wise for per-output bounds.
        """
        if self.n_layers == 1:
            W = self.weights[0] / input_scale[None, :]
            return np.linalg.norm(W, axis=1)
        W0 = self.weights[0] / input_scale[None, :]
        prod = float(np.linalg.svd(W0, compute_uv=False)[0])
        for W in self.weights[1:-1]:
            prod *= float(np.linalg.svd(W, compute_uv=False)[0])
        last_rows = np.linalg.norm(self.weights[-1], axis=1)
        return last_rows * prod

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


def _train(net: DenseNet, x, y, grad_fn, epochs, lr, momentum=0.9,
           weight_decay=1e-6, lr_floor_frac=0.01):
    """Full-batch gradient descent with momentum and exponential lr decay."""
    vel_W = [np.zeros_like(W) for W in net.weights]
    vel_b = [np.zeros_like(b) for b in net.biases]
    n = x.shape[0]
    decay = lr_floor_frac ** (1.0 / max(epochs - 1, 1))
    rate = lr
    for _ in range(epochs):
        acts, pre = net.forward_cached(x)
        g_out = grad_fn(acts[-1], y) / n
        gW, gb = net.backward(acts, pre, g_out)
        for i in range(net.n_layers):
            gW[i] += weight_decay * net.weights[i]
            vel_W[i] = momentum * vel_W[i] - rate * gW[i]
            vel_b[i] = momentum * vel_b[i] - rate * gb[i]
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

    def caps(self) -> np.ndarray:
        denom = self.max_disturbance + self.max_state_step
        if denom <= 0.0:
            raise ValueError("budget denominators must be positive")
        return np.asarray(self.ceilings, dtype=float) / denom


@dataclass
class SurrogateModel:
    """Regressor + classifier pair with normalization and certificate."""
    mode_name: str
    channels: tuple
    ceilings: np.ndarray
    regressor: DenseNet
    classifier: DenseNet
    input_shift: np.ndarray
    input_scale: np.ndarray
    eps: float = 0.0                    # validation max abs error
    threshold: float = 0.5              # infeasibility score cutoff
    lipschitz_bound: np.ndarray | None = None   # certified L-hat per output
    lipschitz_cap: np.ndarray | None = None     # budget caps L-bar
    budget: LipschitzBudget | None = None
    seed: int = 0
    train_history: dict = field(default_factory=dict)

    def normalize(self, theta: np.ndarray) -> np.ndarray:
        return (theta - self.input_shift) / self.input_scale

    def out_of_domain(self, theta: np.ndarray, margin: float = 4.0) -> bool:
        zed = np.abs(self.normalize(theta))
        return bool(np.any(zed > margin))

    def infer(self, theta: np.ndarray):
        """(clamped slack, infeasibility flag, inference seconds)."""
        t0 = time.perf_counter()
        z = self.normalize(np.asarray(theta, dtype=float))
        raw = self.regressor.forward(z[None, :])[0]
        slack = np.clip(raw, 0.0, self.ceilings)
        score = _sigmoid(self.classifier.forward(z[None, :])[0, 0])
        infeasible = bool(score >= self.threshold)
        return slack, infeasible, time.perf_counter() - t0

    def classify_score(self, thetas: np.ndarray) -> np.ndarray:
        z = (thetas - self.input_shift) / self.input_scale
        return _sigmoid(self.classifier.forward(z)[:, 0])

    def predict_slack(self, thetas: np.ndarray) -> np.ndarray:
        z = (thetas - self.input_shift) / self.input_scale
        raw = self.regressor.forward(z)
        return np.clip(raw, 0.0, self.ceilings[None, :])

    def admissible_disturbance(self, state_step_norm: float) -> float:
        """Online drift budget from the certificate (worst-output rule)."""
        caps = self.lipschitz_cap
        etas = np.asarray(self.budget.ceilings, dtype=float)
        return float(np.min((etas - self.eps) / caps) - state_step_norm)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _splits(n: int, seed: int):
    rng = np.random.default_rng(seed + 101)
    order = rng.permutation(n)
    n_train = int(round(0.8 * n))
    n_val = int(round(0.1 * n))
    return (order[:n_train], order[n_train:n_train + n_val],
            order[n_train + n_val:])


def train_regressor(thetas, slacks, feasible, budget: LipschitzBudget,
                    hidden=DEFAULT_HIDDEN, epochs=DEFAULT_EPOCHS,
                    lr=3e-3, seed=0):
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

    shift = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale < 1e-9] = 1.0
    xn = (x - shift) / scale

    i_tr, i_va, i_te = _splits(x.shape[0], seed)
    if i_va.size == 0:
        i_va = i_tr[: max(1, i_tr.size // 10)]
    rng = np.random.default_rng(seed)
    net = DenseNet.init(rng, (x.shape[1], *hidden, y.shape[1]))

    # standardized targets condition the fit; folded back into the last
    # layer afterwards so the network maps to physical units
    y_shift = y[i_tr].mean(axis=0)
    y_scale = np.maximum(y[i_tr].std(axis=0), 1e-9)
    yn = (y - y_shift) / y_scale

    def grad_mse(out, target):
        return 2.0 * (out - target)

    _train(net, xn[i_tr], yn[i_tr], grad_mse, epochs, lr)
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
    eps = float(np.max(np.abs(val_pred - y[i_va]))) if i_va.size else 0.0
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


def train_classifier(thetas, feasible, hidden=DEFAULT_HIDDEN,
                     epochs=DEFAULT_EPOCHS, lr=3e-3, seed=0,
                     shift=None, scale=None):
    """Fit the infeasibility classifier; calibrate the score threshold so
    no validation sample is predicted feasible while actually infeasible."""
    x = np.asarray(thetas, dtype=float)
    labels = (~np.asarray(feasible, dtype=bool)).astype(float)  # 1 = infeasible
    if labels.min() == labels.max():
        raise ValueError("classifier needs both classes present")
    if shift is None:
        shift = x.mean(axis=0)
        scale = x.std(axis=0)
        scale = np.where(scale < 1e-9, 1.0, scale)
    xn = (x - shift) / scale

    i_tr, i_va, i_te = _splits(x.shape[0], seed + 7)
    if i_va.size == 0:
        i_va = i_tr[: max(1, i_tr.size // 10)]
    rng = np.random.default_rng(seed + 7)
    net = DenseNet.init(rng, (x.shape[1], *hidden, 1))

    def grad_bce(out, target):
        return _sigmoid(out) - target

    _train(net, xn[i_tr], labels[i_tr][:, None], grad_bce, epochs, lr)

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
    acc = float(np.mean(pred_va == infeas_va)) if i_va.size else 1.0
    stats = {"threshold": threshold, "confusion_val": confusion,
             "accuracy_val": acc,
             "n_train": int(i_tr.size), "n_val": int(i_va.size),
             "n_test": int(i_te.size)}
    return net, shift, scale, threshold, stats


def train_mode_model(mode_name, channels, ceilings, thetas, feasible, slacks,
                     budget: LipschitzBudget, hidden=DEFAULT_HIDDEN,
                     epochs=DEFAULT_EPOCHS, lr=3e-3, seed=0) -> SurrogateModel:
    """Train the regressor/classifier pair for one relaxation mode."""
    reg, shift, scale, eps, reg_stats = train_regressor(
        thetas, slacks, feasible, budget, hidden, epochs, lr, seed)
    clf, _, _, threshold, clf_stats = train_classifier(
        thetas, feasible, hidden, epochs, lr, seed, shift=shift, scale=scale)
    model = SurrogateModel(
        mode_name=mode_name, channels=tuple(channels),
        ceilings=np.asarray(ceilings, dtype=float),
        regressor=reg, classifier=clf,
        input_shift=shift, input_scale=scale,
        eps=eps, threshold=threshold,
        lipschitz_bound=np.asarray(reg_stats["lipschitz"]),
        lipschitz_cap=budget.caps(),
        budget=budget, seed=seed,
        train_history={"regressor": reg_stats, "classifier": clf_stats})
    return model


def certify(model: SurrogateModel, n_pairs: int = 0, seed: int = 0) -> dict:
    """Re-derive the spectral bound and compare against the budget caps.

    Optionally samples random input pairs to confirm the bound empirically
    (a sampled quotient can only ever fall below a valid bound).
    """
    lip = model.regressor.lipschitz_per_output(model.input_scale)
    caps = model.lipschitz_cap
    ok = bool(np.all(lip <= caps * (1.0 + 1e-9)))
    report = {
        "mode": model.mode_name,
        "lipschitz": [float(v) for v in lip],
        "caps": [float(v) for v in caps],
        "certified": ok,
        "eps": model.eps,
        "violations": [model.channels[j] for j in range(lip.size)
                       if lip[j] > caps[j] * (1.0 + 1e-9)],
    }
    if n_pairs > 0:
        rng = np.random.default_rng(seed)
        d = model.input_shift.size
        a = model.input_shift + model.input_scale * rng.normal(0, 2.0, (n_pairs, d))
        b = model.input_shift + model.input_scale * rng.normal(0, 2.0, (n_pairs, d))
        za = (a - model.input_shift) / model.input_scale
        zb = (b - model.input_shift) / model.input_scale
        fa = model.regressor.forward(za)
        fb = model.regressor.forward(zb)
        dist = np.linalg.norm(a - b, axis=1)
        dist[dist < 1e-12] = 1e-12
        quot = np.abs(fa - fb) / dist[:, None]
        report["sampled_max_quotient"] = [float(v) for v in np.max(quot, axis=0)]
        report["sampled_within_bound"] = bool(
            np.all(np.max(quot, axis=0) <= lip * (1.0 + 1e-9)))
    return report


def max_state_step(params, horizon, v_max: float, n_samples: int = 100_000,
                   seed: int = 0) -> float:
    """Sampled bound on the one-step state motion norm inside the box.

    Used for the budget denominator; a sampled maximum under-approximates
    the true supremum, which the certificate report notes.
    """
    from . import dynamics as dyn
    from .path import straight_path
    rng = np.random.default_rng(seed)
    path = straight_path(2.0 * v_max * horizon.t_s + 100.0)
    worst = 0.0
    batch = min(n_samples, 2000)
    p = params
    for _ in range(max(1, n_samples // batch)):
        for _ in range(batch // 100):
            x = dyn.state(
                s=rng.uniform(1.0, 50.0),
                e_y=rng.uniform(-p.e_y_max, p.e_y_max),
                e_psi=rng.uniform(-p.e_psi_max, p.e_psi_max),
                delta=rng.uniform(-p.delta_max, p.delta_max),
                alpha=rng.uniform(-p.alpha_max, p.alpha_max),
                v=rng.uniform(0.0, v_max),
                a=rng.uniform(p.accel_min, p.accel_max))
            u = np.array([rng.uniform(-p.delta_max, p.delta_max),
                          rng.uniform(p.accel_min, p.accel_max)])
            x_next = dyn.f_discrete(x, u, path, p, horizon.t_s)
            worst = max(worst, float(np.linalg.norm(x_next - x)))
    return worst


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


def save_model(model: SurrogateModel, filename: str) -> None:
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
        "regressor": {
            "weights": [_enc(W) for W in model.regressor.weights],
            "biases": [_enc(b) for b in model.regressor.biases],
        },
        "classifier": {
            "weights": [_enc(W) for W in model.classifier.weights],
            "biases": [_enc(b) for b in model.classifier.biases],
        },
        "certificate": {
            "lipschitz": [float(v) for v in model.lipschitz_bound],
            "caps": [float(v) for v in model.lipschitz_cap],
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
    reg = DenseNet([_dec(W) for W in doc["regressor"]["weights"]],
                   [_dec(b) for b in doc["regressor"]["biases"]])
    clf = DenseNet([_dec(W) for W in doc["classifier"]["weights"]],
                   [_dec(b) for b in doc["classifier"]["biases"]])
    cert = doc["certificate"]
    ceilings = np.asarray(doc["ceilings"], dtype=float)
    budget = LipschitzBudget(max_disturbance=cert["max_disturbance"],
                             max_state_step=cert["max_state_step"],
                             ceilings=ceilings)
    return SurrogateModel(
        mode_name=doc["mode"], channels=tuple(doc["channels"]),
        ceilings=ceilings, regressor=reg, classifier=clf,
        input_shift=_dec(doc["input_shift"]),
        input_scale=_dec(doc["input_scale"]),
        eps=float(doc["eps"]), threshold=float(doc["threshold"]),
        lipschitz_bound=np.asarray(cert["lipschitz"]),
        lipschitz_cap=np.asarray(cert["caps"]),
        budget=budget, seed=int(doc["seed"]),
        train_history=doc.get("train_history", {}))

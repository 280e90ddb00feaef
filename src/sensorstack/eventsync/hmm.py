"""Hidden Markov models with diagonal Gaussian emissions.

Training is plain Baum-Welch over one or more observation sequences,
carried out in log space. The per-iteration total log-likelihood is
recorded so callers can assert the expectation-maximization guarantee
that it never decreases.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np
from scipy.special import logsumexp

from .. import jsonl
from ..errors import ConfigError, UsageError

VAR_FLOOR = 1e-6


@dataclass(frozen=True)
class HmmModel:
    start: np.ndarray        # (S,) initial state probabilities
    transitions: np.ndarray  # (S, S) row-stochastic
    means: np.ndarray        # (S, D) emission means
    variances: np.ndarray    # (S, D) diagonal emission variances

    def __post_init__(self):
        start = np.asarray(self.start, dtype=float)
        trans = np.asarray(self.transitions, dtype=float)
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        variances = np.atleast_2d(np.asarray(self.variances, dtype=float))
        s = len(start)
        if trans.shape != (s, s):
            raise ConfigError("transition matrix shape must match state count")
        if means.shape != variances.shape or means.shape[0] != s:
            raise ConfigError("emission parameter shapes must match state count")
        if np.any(start < 0) or abs(start.sum() - 1.0) > 1e-9:
            raise ConfigError("start probabilities must form a distribution")
        if np.any(trans < 0) or np.any(np.abs(trans.sum(axis=1) - 1.0) > 1e-9):
            raise ConfigError("transition rows must form distributions")
        if np.any(variances <= 0):
            raise ConfigError("emission variances must be positive")
        for name, arr in (("start", start), ("transitions", trans), ("means", means), ("variances", variances)):
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"{name} must be finite")
            arr.flags.writeable = False
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "transitions", trans)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)

    @property
    def n_states(self) -> int:
        return len(self.start)

    @property
    def n_dims(self) -> int:
        return self.means.shape[1]

    def to_json(self, fp: IO[str] | None = None) -> str:
        payload = json.dumps(
            {
                "version": 1,
                "kind": "gaussian_hmm",
                "start": self.start.tolist(),
                "transitions": self.transitions.tolist(),
                "means": self.means.tolist(),
                "variances": self.variances.tolist(),
            },
            sort_keys=True,
        )
        if fp is not None:
            fp.write(payload)
        return payload

    @classmethod
    def from_json(cls, text: str) -> "HmmModel":
        with jsonl.decoding("hmm model"):
            data = jsonl.loads_object(text)
            if data.get("version") != 1 or data.get("kind") != "gaussian_hmm":
                raise UsageError("unrecognized model serialization")
            return cls(
                start=np.asarray(data["start"], dtype=float),
                transitions=np.asarray(data["transitions"], dtype=float),
                means=np.asarray(data["means"], dtype=float),
                variances=np.asarray(data["variances"], dtype=float),
            )


def _log_emissions(model_means, model_vars, obs: np.ndarray) -> np.ndarray:
    """(T, S) log density of each observation under each state."""
    diff = obs[:, None, :] - model_means[None, :, :]
    log_norm = -0.5 * np.log(2 * np.pi * model_vars).sum(axis=1)
    quad = -0.5 * (diff**2 / model_vars[None, :, :]).sum(axis=2)
    return quad + log_norm[None, :]


def _prepare_sequences(sequences) -> list[np.ndarray]:
    if isinstance(sequences, np.ndarray):
        sequences = [sequences]
    seqs = []
    for seq in sequences:
        arr = np.asarray(seq, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise UsageError("each sequence must be a non-empty (T, D) array")
        if not np.all(np.isfinite(arr)):
            raise UsageError("observations must be finite")
        seqs.append(arr)
    if not seqs:
        raise UsageError("need at least one observation sequence")
    dims = {s.shape[1] for s in seqs}
    if len(dims) > 1:
        raise UsageError("sequences must share a feature dimension")
    return seqs


@dataclass(frozen=True)
class HmmTrainResult:
    model: HmmModel
    log_likelihoods: tuple[float, ...]


def _init_model(seqs: list[np.ndarray], n_states: int, seed: int) -> HmmModel:
    rng = np.random.default_rng(seed)
    pooled = np.concatenate(seqs, axis=0)
    replace = len(pooled) < n_states
    idx = rng.choice(len(pooled), size=n_states, replace=replace)
    means = pooled[idx].copy()
    variances = np.tile(pooled.var(axis=0) + VAR_FLOOR, (n_states, 1))
    trans = 0.8 * np.eye(n_states) + 0.2 / n_states + 0.01 * rng.random((n_states, n_states))
    trans /= trans.sum(axis=1, keepdims=True)
    start = np.ones(n_states) + 0.01 * rng.random(n_states)
    start /= start.sum()
    return HmmModel(start, trans, means, variances)


def train_hmm(
    sequences,
    n_states: int = 3,
    iterations: int = 20,
    seed: int = 0,
    var_floor: float = VAR_FLOOR,
) -> HmmTrainResult:
    """Fit a diagonal-Gaussian HMM by expectation maximization.

    Initialization draws emission means from the pooled observations
    using the given seed, so results are reproducible. Returns the model
    plus the total log-likelihood recorded at the start of every
    iteration; that sequence is non-decreasing.
    """
    if n_states < 1:
        raise ConfigError("need at least one state")
    if iterations < 1:
        raise ConfigError("need at least one iteration")
    seqs = _prepare_sequences(sequences)
    model = _init_model(seqs, n_states, seed)

    log_likelihoods: list[float] = []
    s = n_states
    for _ in range(iterations):
        log_start = np.log(model.start + 1e-300)
        log_trans = np.log(model.transitions + 1e-300)

        total_ll = 0.0
        start_acc = np.zeros(s)
        xi_acc = np.zeros((s, s))
        gamma_trans_acc = np.zeros(s)
        w_acc = np.zeros(s)
        mean_acc = np.zeros_like(model.means)
        sq_acc = np.zeros_like(model.means)

        for obs in seqs:
            t_len = len(obs)
            log_b = _log_emissions(model.means, model.variances, obs)

            log_alpha = np.empty((t_len, s))
            log_alpha[0] = log_start + log_b[0]
            for t in range(1, t_len):
                log_alpha[t] = log_b[t] + logsumexp(
                    log_alpha[t - 1][:, None] + log_trans, axis=0
                )
            ll = float(logsumexp(log_alpha[-1]))
            total_ll += ll

            log_beta = np.zeros((t_len, s))
            for t in range(t_len - 2, -1, -1):
                log_beta[t] = logsumexp(
                    log_trans + (log_b[t + 1] + log_beta[t + 1])[None, :], axis=1
                )

            log_gamma = log_alpha + log_beta - ll
            gamma = np.exp(log_gamma)
            start_acc += gamma[0]
            w_acc += gamma.sum(axis=0)
            mean_acc += gamma.T @ obs
            sq_acc += gamma.T @ (obs**2)
            if t_len > 1:
                gamma_trans_acc += gamma[:-1].sum(axis=0)
                log_xi = (
                    log_alpha[:-1, :, None]
                    + log_trans[None, :, :]
                    + (log_b[1:] + log_beta[1:])[:, None, :]
                    - ll
                )
                xi_acc += np.exp(logsumexp(log_xi, axis=0))

        log_likelihoods.append(total_ll)

        start = start_acc / len(seqs)
        start = np.clip(start, 0.0, None)
        start /= start.sum()

        trans = model.transitions.copy()
        visited = gamma_trans_acc > 1e-12
        trans[visited] = xi_acc[visited] / gamma_trans_acc[visited, None]
        trans = np.clip(trans, 0.0, None)
        trans /= trans.sum(axis=1, keepdims=True)
        if s == 1:
            trans = np.ones((1, 1))

        occupied = w_acc > 1e-12
        means = model.means.copy()
        variances = model.variances.copy()
        means[occupied] = mean_acc[occupied] / w_acc[occupied, None]
        variances[occupied] = (
            sq_acc[occupied] / w_acc[occupied, None] - means[occupied] ** 2
        )
        variances = np.maximum(variances, var_floor)

        model = HmmModel(start, trans, means, variances)

    return HmmTrainResult(model=model, log_likelihoods=tuple(log_likelihoods))


@dataclass(frozen=True)
class ViterbiResult:
    states: tuple[int, ...]
    log_likelihood: float


def viterbi_decode(model: HmmModel, observations) -> ViterbiResult:
    """Most likely state path and its joint log-likelihood."""
    obs = np.asarray(observations, dtype=float)
    if obs.ndim == 1:
        obs = obs[:, None]
    if obs.ndim != 2 or obs.shape[0] == 0:
        raise UsageError("observations must form a non-empty (T, D) array")
    if obs.shape[1] != model.n_dims:
        raise UsageError(
            f"observation dimension {obs.shape[1]} does not match model dimension {model.n_dims}"
        )

    log_b = _log_emissions(model.means, model.variances, obs)
    log_start = np.log(model.start + 1e-300)
    log_trans = np.log(model.transitions + 1e-300)

    t_len = len(obs)
    delta = np.empty((t_len, model.n_states))
    back = np.zeros((t_len, model.n_states), dtype=int)
    delta[0] = log_start + log_b[0]
    for t in range(1, t_len):
        scores = delta[t - 1][:, None] + log_trans
        back[t] = np.argmax(scores, axis=0)
        delta[t] = scores[back[t], np.arange(model.n_states)] + log_b[t]

    last = int(np.argmax(delta[-1]))
    path = [last]
    for t in range(t_len - 1, 0, -1):
        last = int(back[t, last])
        path.append(last)
    path.reverse()
    return ViterbiResult(states=tuple(path), log_likelihood=float(delta[-1].max()))

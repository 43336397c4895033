"""Shared builders for randomized and hand-made test distributions."""

from itertools import product

import numpy as np

from synpid.distributions import JointDistribution, VariableSpec, _count_codes, _radix_multipliers


def random_distribution(rng, r=2, max_arity=3):
    """Random sparse counts over a destination and r sources."""
    arity_x = int(rng.integers(2, max_arity + 1))
    arities = [int(rng.integers(2, max_arity + 1)) for _ in range(r)]
    variables = (
        VariableSpec("x", arity_x, "destination-next"),
        *(VariableSpec(f"a{i + 1}", a) for i, a in enumerate(arities)),
    )
    space = list(product(range(arity_x), *(range(a) for a in arities)))
    counts = {}
    for key in space:
        if rng.random() < 0.75:
            counts[key] = int(rng.integers(1, 30))
    for key in space[:4]:
        counts.setdefault(key, 1)
    return JointDistribution(variables, counts)


def to_prob_table(dist):
    """Plain {tuple: probability} view for the brute-force oracle."""
    return {k: c / dist.total for k, c in dist.counts.items()}


def gate_distribution(gate, weights=None):
    """Two-source gate over (x, a1, a2); default weights are uniform inputs."""
    variables = (
        VariableSpec("x", 4 if gate == "copy2" else 2, "destination-next"),
        VariableSpec("a1", 2, "source"),
        VariableSpec("a2", 2, "source"),
    )
    fn = {
        "xor": lambda a, b: a ^ b,
        "or": lambda a, b: a | b,
        "and": lambda a, b: a & b,
        "copy2": lambda a, b: 2 * a + b,
    }[gate]
    counts = {}
    for a in (0, 1):
        for b in (0, 1):
            w = 0.25 if weights is None else weights[(a, b)]
            counts[(fn(a, b), a, b)] = w
    return JointDistribution(variables, counts)


def count_samples(variables, samples) -> JointDistribution:
    """Tally a stream of sample tuples into a distribution: the reference for
    the library's packed-code counting.

    ``samples`` may be any iterable of tuples or a 2-D integer array with one
    column per variable. Symbols outside a variable's alphabet are an error.
    """
    variables = tuple(variables)
    arr = np.asarray(list(samples) if not isinstance(samples, np.ndarray) else samples)
    if arr.size == 0:
        return JointDistribution(variables, {})
    if arr.ndim != 2 or arr.shape[1] != len(variables):
        raise ValueError(
            f"samples must have one column per variable ({len(variables)}), "
            f"got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"samples must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64)
    for i, v in enumerate(variables):
        col = arr[:, i]
        if col.min() < 0 or col.max() >= v.arity:
            raise ValueError(
                f"symbol out of range for variable {v.name!r} (arity {v.arity}): "
                f"saw values in [{col.min()}, {col.max()}]")
    mults = np.array(_radix_multipliers([v.arity for v in variables]), dtype=np.int64)
    return _count_codes(variables, arr @ mults)


def embed_history(series, k: int, t: int, base: int = 2) -> int:
    """Pack the k values of ``series`` ending at index t into one symbol, one
    value at a time: the reference for the library's array packers.

    The most recent value lands in the lowest digit. Requires t >= k-1 so
    the full window exists.
    """
    if k < 1:
        raise ValueError(f"history length k must be >= 1, got {k}")
    if t < k - 1:
        raise ValueError(f"need t >= k-1 for a full window, got t={t}, k={k}")
    symbol = 0
    for j in range(k):
        v = int(series[t - j])
        if not 0 <= v < base:
            raise ValueError(f"series value {v} out of range for base {base}")
        symbol += v * base ** j
    return symbol


def unpack_history(symbol: int, k: int, base: int = 2) -> tuple[int, ...]:
    """Inverse of embed_history: (most recent, ..., oldest)."""
    if not 0 <= symbol < base ** k:
        raise ValueError(f"symbol {symbol} out of range for k={k}, base={base}")
    out = []
    for _ in range(k):
        out.append(symbol % base)
        symbol //= base
    return tuple(out)

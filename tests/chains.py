"""Test-side chain helpers: d x d views of a stored chain, and a chain
shared by several test modules.

The library holds a chain only on its transitions of positive
probability (``model.entries()``).  Reference computations in the tests
(dense sweeps, direct eigenvalue solves, the norm scan by matrix powers)
want d x d arrays; these helpers form them, 0 off the pattern.
"""

import math

import numpy as np


def dense_chain(model):
    """``(P, h)``: the chain's transition matrix and rewards as d x d
    arrays, 0 off the pattern."""
    rows, cols, p, h = model.entries()
    P = np.zeros((model.dim, model.dim))
    H = np.zeros((model.dim, model.dim))
    P[rows, cols] = p
    H[rows, cols] = h
    return P, H


def dense_family(model, t):
    """The complex d x d matrix ``L_t`` (exact, no truncation), with the
    exponential taken on the nonzeros only."""
    rows, cols, p, h = model.entries()
    Lt = np.zeros((model.dim, model.dim), dtype=complex)
    Lt[rows, cols] = p * np.exp(1j * t * h)
    return Lt


def sparse_chain_doc():
    """Model document of a 16-state chain with 2 nonzeros per row, so
    8 * nnz = d**2 (the sparse path): state j steps to 2j and 2j + 1 mod
    16, with golden-ratio rewards."""
    d = 16
    P = np.zeros((d, d))
    h = np.zeros((d, d))
    for j in range(d):
        p = 0.25 + j / 32.0
        P[j, 2 * j % d], P[j, (2 * j + 1) % d] = p, 1.0 - p
        h[j, 2 * j % d], h[j, (2 * j + 1) % d] = 1.0, (1.0 + math.sqrt(5.0)) / 2.0
    return {"type": "markov", "transition": P.tolist(), "observable": h.tolist()}

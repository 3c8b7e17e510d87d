"""Helpers that only the tests use."""

import numpy as np

from dgdx.expt import PARAM_KEYS


def pack_params(params):
    return np.concatenate([params[k].ravel() for k in PARAM_KEYS])


def unpack_params(vec, like):
    out, pos = {}, 0
    for k in PARAM_KEYS:
        size = like[k].size
        out[k] = vec[pos : pos + size].reshape(like[k].shape).copy()
        pos += size
    return out

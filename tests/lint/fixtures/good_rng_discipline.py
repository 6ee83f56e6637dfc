"""Fixture: seeded, instance-based RNG (rng-discipline must stay silent)."""

import random

import numpy as np


def shuffle_ranks(pairs, seed):
    rng = np.random.default_rng(seed)
    noise = rng.random(len(pairs))
    random.Random(seed).shuffle(pairs)
    return pairs, noise


def fresh_streams(seed):
    rng = np.random.default_rng(seed)
    return rng, random.Random(seed)

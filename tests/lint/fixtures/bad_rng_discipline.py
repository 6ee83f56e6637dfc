"""Fixture: global RNG draws and unseeded RNG constructors (rng-discipline flags all four)."""

import random

import numpy as np


def shuffle_ranks(pairs):
    noise = np.random.random(len(pairs))
    random.shuffle(pairs)
    return pairs, noise


def fresh_streams():
    rng = np.random.default_rng()
    return rng, random.Random()

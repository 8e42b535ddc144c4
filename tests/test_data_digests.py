"""Pinned digests of every ``repro.data`` generator.

Each benchmark, figure and result file starts from these inputs, so a
generator rewritten for speed must make the same draws in the same order
and build the same values.  A digest is the SHA-256 of the output's
``repr``, which spells every float exactly; two (size, seed) points per
generator, and ``labeled_points`` at even and odd dimensions (Box–Muller
draws come in pairs, so an odd dimension carries a cached value from one
vector into the next).
"""

import hashlib

import pytest

import repro.data

PINNED = [
    ("labeled_points", (400, 10), {'seed': 29},
     "bab864375c3c7c22c212fb3d078dbfe6c762b8fef1134338dfc204c92a7cad10"),
    ("labeled_points", (257, 4), {'seed': 3},
     "994fbf71acbaafa25e8d10c3c6a0f915329df15de348ff5dc7df182a3b089273"),
    ("labeled_points", (301, 7), {'seed': 29},
     "10149cbc3e60a042d671ab473c8f4c5fc803ba240581eb530a52b91c054af01f"),
    ("labeled_points", (128, 1), {'seed': 11},
     "c0a43c18aa8b9247177144e53c1ba7335406b04946541d81dd8614a33f0fc714"),
    ("clustered_points", (400, 10, 8), {'seed': 31},
     "a59ad2c4b5fc2252e9e0b51dd7e20f3373d413a49e2e5b51cccb486c5fe97c4c"),
    ("clustered_points", (213, 5, 3), {'seed': 7},
     "2794c7b0a4d9b47bd4321bb67ae9aef75de0663f541c2154ecbca5ca5fb09294"),
    ("rankings_table", (500,), {'seed': 59},
     "6f7f5dc19b4cfea755d89d57e886a42f8ba764707bac5cfa837c69cd9f29f87d"),
    ("rankings_table", (173,), {'seed': 2},
     "d32c24a87f85cb7fbabb8ae00340ea173fff77bab02112216a3ee7258388ade2"),
    ("uservisits_table", (500,), {'seed': 61},
     "037529cc7fcf21c28a5c6d7396b05074988e9e26b3311a7645c85e22b90b185c"),
    ("uservisits_table", (211,), {'ip_prefixes': 37, 'seed': 5},
     "f1788330a9caf9390698c852ac8a95637540f760748899bb01cd0a537fcaa6cd"),
    ("random_words", (2000, 300), {'seed': 13},
     "f28b65b13954c3e24d1863f331b14bcae90457983156efefc0d82040ed7df715"),
    ("random_words", (517, 61), {'min_len': 2, 'max_len': 6, 'seed': 4},
     "0c586a5f7f2f3e746a45b34d58edb2a984d51c599cfd50262db738268a685b10"),
    ("power_law_graph", (200, 900), {'seed': 41},
     "d197c0f7b6dcbbdc2972a158126fb118508e65af614c54ec92b06c0e7c19b824"),
    ("power_law_graph", (57, 300), {'seed': 8},
     "58089fca648cc6b69defef2f26ab0300ae91651325b7a6afbe0aba1ab76bca19"),
]


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize(
    "name, args, kwargs, expected", PINNED,
    ids=[f"{name}{args}" for name, args, _, _ in PINNED])
def test_generator_output_is_pinned(name, args, kwargs, expected):
    generator = getattr(repro.data, name)
    assert digest(generator(*args, **kwargs)) == expected


def test_every_generator_is_pinned():
    """A generator added to ``repro.data`` gets its digests here too."""
    generators = {name for name in repro.data.__all__
                  if callable(getattr(repro.data, name))}
    # graph_preset is power_law_graph at a preset's sizes.
    assert generators - {"graph_preset"} == {name for name, *_ in PINNED}

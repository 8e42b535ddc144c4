"""RandomWriter-style text for WordCount (paper §6: 10M/100M unique keys).

The WC experiments vary two parameters: total data size and the number of
unique keys — the latter controls the hash-based shuffle buffer's size
under eager aggregation, which is where Deca's segment reuse pays off
(Fig. 8(b)).  :func:`random_words` exposes both knobs.
"""

from __future__ import annotations

import random
import string
from typing import Callable

from ..errors import DecaError

_ALPHABET = string.ascii_lowercase


def _word_for(index: int, min_len: int, max_len: int,
              below: Callable[[int], int]) -> str:
    """A deterministic word for key *index* (base-26 with random tail).

    *below* is the generator's ``_randbelow``: ``randint(a, b)`` is
    ``a + _randbelow(b - a + 1)`` and ``choice(seq)`` is
    ``seq[_randbelow(len(seq))]``, the same draws with fewer calls.
    """
    digits = []
    n = index
    while True:
        digits.append(_ALPHABET[n % 26])
        n //= 26
        if n == 0:
            break
    word = "".join(reversed(digits))
    pad = min_len + below(max_len - min_len + 1)
    if len(word) < pad:
        filler = "".join([_ALPHABET[below(26)]
                          for _ in range(pad - len(word))])
        word = word + filler
    return word


def random_words(num_words: int, unique_keys: int,
                 min_len: int = 4, max_len: int = 10,
                 seed: int = 13) -> list[str]:
    """Generate *num_words* words drawn from *unique_keys* distinct keys.

    Key frequencies are uniform, matching Hadoop RandomWriter's output.
    The vocabulary is generated once so every occurrence of key ``i`` is
    the identical string.
    """
    if num_words < 0:
        raise DecaError("num_words cannot be negative")
    if unique_keys < 1:
        raise DecaError("unique_keys must be >= 1")
    if min_len < 1 or max_len < min_len:
        raise DecaError("need 1 <= min_len <= max_len")
    below = random.Random(seed)._randbelow   # randrange(n) is _randbelow(n)
    vocabulary = [_word_for(i, min_len, max_len, below)
                  for i in range(unique_keys)]
    return [vocabulary[below(unique_keys)] for _ in range(num_words)]

"""The rankings / uservisits tables for the SQL comparison (§6.6).

The paper samples the Common Crawl document corpus using the Big Data
Benchmark's two-table schema:

* ``rankings(pageURL, pageRank, avgDuration)``
* ``uservisits(sourceIP, destURL, visitDate, adRevenue, userAgent,
  countryCode, languageCode, searchWord, duration)``

and runs a filter query over rankings and a GroupBy-SUM over uservisits'
``SUBSTR(sourceIP, 1, 5)``.  These generators produce scaled synthetic
rows with matched column shapes: Zipf-ish pageRanks and dotted-quad source
IPs whose 5-character prefixes form the aggregation keys.
"""

from __future__ import annotations

import random

from ..errors import DecaError

RankingRow = tuple[str, int, int]
UserVisitRow = tuple[str, str, int, float, str, str, str, str, int]


def rankings_table(rows: int, seed: int = 59) -> list[RankingRow]:
    """Synthetic ``rankings`` rows: (pageURL, pageRank, avgDuration)."""
    if rows < 0:
        raise DecaError("rows cannot be negative")
    rng = random.Random(seed)
    # rng.paretovariate(1.2) and rng.randint(1, 60), spelled out:
    # (1.0 - random()) ** (-1.0 / alpha) and 1 + _randbelow(60).
    draw, below = rng.random, rng._randbelow
    exponent = -1.0 / 1.2
    out: list[RankingRow] = []
    append = out.append
    for i in range(rows):
        # Heavy-tailed pageRank so the >100 filter keeps a small slice.
        rank = int((1.0 - draw()) ** exponent * 10)
        append((f"url{i:08d}.example.com/page", rank, 1 + below(60)))
    return out


def uservisits_table(rows: int, ip_prefixes: int = 500,
                     seed: int = 61) -> list[UserVisitRow]:
    """Synthetic ``uservisits`` rows.

    *ip_prefixes* controls the cardinality of ``SUBSTR(sourceIP, 1, 5)``,
    i.e. the number of groups Query 2 aggregates into.
    """
    if rows < 0:
        raise DecaError("rows cannot be negative")
    if ip_prefixes < 1:
        raise DecaError("ip_prefixes must be >= 1")
    rng = random.Random(seed)
    agents = ["Mozilla/5.0", "Safari/13.1", "Chrome/88.0", "curl/7.64"]
    countries = ["USA", "CHN", "DNK", "GBR", "DEU"]
    languages = ["en", "zh", "da", "de", "fr"]
    words = ["vldb", "spark", "deca", "memory", "gc"]
    # rng.randrange(n) is rng._randbelow(n) and rng.randint(1, 600) is
    # 1 + _randbelow(600): the same draws in the same order, fewer calls.
    draw, below = rng.random, rng._randbelow
    urls = max(1, rows // 10)
    out: list[UserVisitRow] = []
    append = out.append
    for _ in range(rows):
        # First octet pinned to 3 digits so the 5-char prefix is stable
        # (e.g. "101.2"), giving a controllable group count.
        first = 100 + (below(ip_prefixes) // 10)
        second = below(ip_prefixes) % 100
        ip = f"{first}.{second}.{below(256)}.{below(256)}"
        url = f"url{below(urls):08d}.example.com"
        date = 20090000 + below(10000)
        revenue = draw() * 10.0
        append((ip, url, date, revenue,
                agents[below(len(agents))],
                countries[below(len(countries))],
                languages[below(len(languages))],
                words[below(len(words))],
                1 + below(600)))
    return out

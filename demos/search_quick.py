"""
Searching for 3-inflatable permutations
=======================================

A limited run over the centrally symmetric length-17 space. The search
runs shard by shard in order of first value, scans each shard whole and
stops with the shard that brings the third hit. The first shard has no
hits and the second has the first three, so the run covers two of the
sixteen shards and takes well under a second on one core.
"""

import time

from inflatable import SearchConfig, check_3_inflatable, search_3_inflatable

# inadmissible lengths are decided without scanning
res = search_3_inflatable(SearchConfig(n=9))
print(f"n = 9: {res.status} ({res.reason})\n")

t0 = time.monotonic()
res = search_3_inflatable(SearchConfig(n=17, central_only=True, limit=3))
dt = time.monotonic() - t0
print(f"n = 17, first {len(res.hits)} hits in {dt:.1f} s "
      f"({res.scanned:,} candidates covered):")
for h in res.hits:
    print(f"  {h} re-verifies: {check_3_inflatable(h).verdict}")

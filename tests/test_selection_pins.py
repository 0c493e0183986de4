"""End-to-end pins: every algorithm's answers, simulated times, pivot
streams and collective rounds, as literals.

The literals are what the eager three-mask split produced, so they pin
that the lazy :class:`~repro.kernels.partition.Partition3` gathers the
same sides in the same order. A changed value, simulated time, pivot or
round count fails the row; a deliberate cost or algorithm change has to
recapture the literals.

Each row is ``(values, simulated_time.hex(), pivots, rounds)``:

* ``values`` — the answers' ``float.hex()``, comma-joined;
* ``pivots`` — ``"<iterations>:<sha1>"`` of the per-iteration pivots
  (scalars, bands and cut lists, every key as ``float.hex()``);
* ``rounds`` — ``collective_rounds()`` as ``op:calls/rounds/congestion``
  entries in op order.
"""

import hashlib

import pytest

import repro
from repro.selection import ALGORITHMS

P = 4
# Large enough that fast_randomized iterates (its band split) instead of
# going straight to the endgame.
N = 16000
K = N // 3
KS = (1, N // 4, N // 2, (3 * N) // 4, N)
DISTRIBUTIONS = ("random", "sorted", "few_distinct", "skewed_shards")

#: (algorithm, distribution, entry, backend): the full algorithm x
#: distribution grid for both entry points on the default backend, the
#: sketch prefilter for every algorithm, and the pool backend. The
#: prefilter rows use distinct keys, so a wrong survivor count or order
#: shows (on duplicate-heavy keys the survivors are one repeated value).
GRID = (
    [(a, d, e, None) for a in sorted(ALGORITHMS) for d in DISTRIBUTIONS
     for e in ("select", "multi_select")]
    + [(a, "random", e, None) for a in sorted(ALGORITHMS)
       for e in ("sketch_select", "sketch_multi_select")]
    + [("fast_randomized", "few_distinct", e, "pool")
       for e in ("select", "multi_select")]
)


def _key(x) -> str:
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(_key(v) for v in x) + ")"
    return float(x).hex()


def observe(algorithm, distribution, entry, backend) -> tuple:
    """Run one grid row on a fresh machine and encode what it returned."""
    # Simulated time is topology-specific: pin the default shape even when
    # $REPRO_TOPOLOGY picks another for the rest of the suite.
    data = repro.Machine(n_procs=P, topology="crossbar").generate(
        N, distribution=distribution, seed=2
    )
    plan = repro.SelectionPlan(
        algorithm=algorithm, seed=2, backend=backend, trace=True,
        prefilter="sketch" if entry.startswith("sketch_") else None,
    )
    if entry.endswith("multi_select"):
        report = data.multi_select(list(KS), plan)
        values = report.values
    else:
        report = data.select(K, plan)
        values = [report.value]
    pivots = [_key(it.pivot) for it in report.stats.iterations]
    digest = hashlib.sha1("|".join(pivots).encode()).hexdigest()[:16]
    rounds = " ".join(
        f"{op}:{row['calls']}/{row['rounds']}/{row['max_congestion']}"
        for op, row in sorted(report.collective_rounds().items())
    )
    return (
        ",".join(_key(v) for v in values),
        report.simulated_time.hex(),
        f"{len(pivots)}:{digest}",
        rounds,
    )


PINS = {
    ('bucket_based', 'random', 'select', None): (
        '0x1.524e13fddc692p-2',
        '0x1.2860b475bdf26p-3',
        '10:6479deb767ccbe3f',
        'broadcast:11/22/1 combine:11/22/1 gather:11/22/1',
    ),
    ('bucket_based', 'random', 'multi_select', None): (
        '0x1.4c1e7d3ef8000p-15,0x1.ffae7611acf18p-3,0x1.fd22c536eb09ap-2,0x1.812cd564d5021p-1,0x1.fffa819d967f8p-1',
        '0x1.7339c0ebedfacp-2',
        '43:2af74e1ee428e145',
        'broadcast:44/88/1 combine:44/88/1 gather:44/88/1',
    ),
    ('bucket_based', 'sorted', 'select', None): (
        '0x1.4d40000000000p+12',
        '0x1.c9a86ff632208p-3',
        '10:8d8e0b81d5e59696',
        'broadcast:11/22/1 combine:11/22/1 gather:11/22/1',
    ),
    ('bucket_based', 'sorted', 'multi_select', None): (
        '0x0.0p+0,0x1.f3e0000000000p+11,0x1.f3f0000000000p+12,0x1.76f8000000000p+13,0x1.f3f8000000000p+13',
        '0x1.c1d7641481b7dp-1',
        '66:53c490ff79d0d68b',
        'broadcast:67/134/1 combine:67/134/1 gather:67/134/1',
    ),
    ('bucket_based', 'few_distinct', 'select', None): (
        '0x1.0000000000000p+1',
        '0x1.8d4be32d61621p-4',
        '3:04c4d3ecd32d3a18',
        'broadcast:3/6/1 combine:4/8/1 gather:3/6/1',
    ),
    ('bucket_based', 'few_distinct', 'multi_select', None): (
        '0x0.0p+0,0x1.0000000000000p+1,0x1.0000000000000p+2,0x1.8000000000000p+2,0x1.c000000000000p+2',
        '0x1.7837a7363a4eap-3',
        '7:9a306a23cdad88f6',
        'broadcast:7/14/1 combine:8/16/1 gather:7/14/1',
    ),
    ('bucket_based', 'skewed_shards', 'select', None): (
        '0x1.50ef04ad5e73ep-2',
        '0x1.1b1162281344cp-2',
        '10:a72d69c766c3441c',
        'broadcast:11/22/1 combine:11/22/1 gather:11/22/1',
    ),
    ('bucket_based', 'skewed_shards', 'multi_select', None): (
        '0x1.04962587b4000p-14,0x1.fe613d63f7b04p-3,0x1.fdae7c29d0332p-2,0x1.820bddfeb3fd3p-1,0x1.fffa819d967f8p-1',
        '0x1.5971a218c944bp-1',
        '43:0ef0269c8ae71639',
        'broadcast:44/88/1 combine:44/88/1 gather:44/88/1',
    ),
    ('fast_randomized', 'random', 'select', None): (
        '0x1.524e13fddc692p-2',
        '0x1.92941dceedcb8p-7',
        '3:4851ad572f2ae230',
        'allgather:6/12/1 alltoallv:3/3/3 broadcast:10/20/1 combine:7/14/1 gather:4/8/1',
    ),
    ('fast_randomized', 'random', 'multi_select', None): (
        '0x1.4c1e7d3ef8000p-15,0x1.ffae7611acf18p-3,0x1.fd22c536eb09ap-2,0x1.812cd564d5021p-1,0x1.fffa819d967f8p-1',
        '0x1.65b7fefd097cap-6',
        '3:33e6dac52124a643',
        'allgather:6/12/1 alltoallv:3/3/3 broadcast:8/16/1 combine:7/14/1 gather:4/8/1',
    ),
    ('fast_randomized', 'sorted', 'select', None): (
        '0x1.4d40000000000p+12',
        '0x1.22d9f3368dfbap-6',
        '3:70c88d16a26d8180',
        'allgather:6/12/1 alltoallv:3/3/2 broadcast:10/20/1 combine:7/14/1 gather:4/8/1',
    ),
    ('fast_randomized', 'sorted', 'multi_select', None): (
        '0x0.0p+0,0x1.f3e0000000000p+11,0x1.f3f0000000000p+12,0x1.76f8000000000p+13,0x1.f3f8000000000p+13',
        '0x1.88d6d32504d10p-6',
        '3:ff45a39dac7a37cb',
        'allgather:6/12/1 alltoallv:3/3/2 broadcast:8/16/1 combine:7/14/1 gather:4/8/1',
    ),
    ('fast_randomized', 'few_distinct', 'select', None): (
        '0x1.0000000000000p+1',
        '0x1.6f7b828fd8774p-6',
        '5:27ed9c0fd9a90ec0',
        'allgather:10/20/1 alltoallv:5/5/3 broadcast:16/32/1 combine:11/22/1 gather:6/12/1',
    ),
    ('fast_randomized', 'few_distinct', 'multi_select', None): (
        '0x0.0p+0,0x1.0000000000000p+1,0x1.0000000000000p+2,0x1.8000000000000p+2,0x1.c000000000000p+2',
        '0x1.3d45ed3caf9e1p-7',
        '1:7804c3d40d71f119',
        'allgather:2/4/1 alltoallv:1/1/3 broadcast:1/2/1 combine:3/6/1 gather:1/2/1',
    ),
    ('fast_randomized', 'skewed_shards', 'select', None): (
        '0x1.50ef04ad5e73ep-2',
        '0x1.1d2e6bf3b3e1ep-6',
        '3:5d682150d6fc9bdc',
        'allgather:6/12/1 alltoallv:3/3/3 broadcast:10/20/1 combine:7/14/1 gather:4/8/1',
    ),
    ('fast_randomized', 'skewed_shards', 'multi_select', None): (
        '0x1.04962587b4000p-14,0x1.fe613d63f7b04p-3,0x1.fdae7c29d0332p-2,0x1.820bddfeb3fd3p-1,0x1.fffa819d967f8p-1',
        '0x1.1c5a120756faap-5',
        '4:da5d986cdd9e60a9',
        'allgather:8/16/1 alltoallv:4/4/3 broadcast:11/22/1 combine:9/18/1 gather:5/10/1',
    ),
    ('hybrid_bucket_based', 'random', 'select', None): (
        '0x1.524e13fddc692p-2',
        '0x1.d14d9abd86083p-6',
        '10:6479deb767ccbe3f',
        'broadcast:11/22/1 combine:11/22/1 gather:11/22/1',
    ),
    ('hybrid_bucket_based', 'random', 'multi_select', None): (
        '0x1.4c1e7d3ef8000p-15,0x1.ffae7611acf18p-3,0x1.fd22c536eb09ap-2,0x1.812cd564d5021p-1,0x1.fffa819d967f8p-1',
        '0x1.112faae876768p-4',
        '43:2af74e1ee428e145',
        'broadcast:44/88/1 combine:44/88/1 gather:44/88/1',
    ),
    ('hybrid_bucket_based', 'sorted', 'select', None): (
        '0x1.4d40000000000p+12',
        '0x1.15e32bb3e2f16p-5',
        '10:8d8e0b81d5e59696',
        'broadcast:11/22/1 combine:11/22/1 gather:11/22/1',
    ),
    ('hybrid_bucket_based', 'sorted', 'multi_select', None): (
        '0x0.0p+0,0x1.f3e0000000000p+11,0x1.f3f0000000000p+12,0x1.76f8000000000p+13,0x1.f3f8000000000p+13',
        '0x1.f1992175c4cf0p-4',
        '66:53c490ff79d0d68b',
        'broadcast:67/134/1 combine:67/134/1 gather:67/134/1',
    ),
    ('hybrid_bucket_based', 'few_distinct', 'select', None): (
        '0x1.0000000000000p+1',
        '0x1.4dbc81252e8ddp-6',
        '3:04c4d3ecd32d3a18',
        'broadcast:3/6/1 combine:4/8/1 gather:3/6/1',
    ),
    ('hybrid_bucket_based', 'few_distinct', 'multi_select', None): (
        '0x0.0p+0,0x1.0000000000000p+1,0x1.0000000000000p+2,0x1.8000000000000p+2,0x1.c000000000000p+2',
        '0x1.f38136cc44e7dp-6',
        '7:9a306a23cdad88f6',
        'broadcast:7/14/1 combine:8/16/1 gather:7/14/1',
    ),
    ('hybrid_bucket_based', 'skewed_shards', 'select', None): (
        '0x1.50ef04ad5e73ep-2',
        '0x1.9553ef6b5d465p-5',
        '10:a72d69c766c3441c',
        'broadcast:11/22/1 combine:11/22/1 gather:11/22/1',
    ),
    ('hybrid_bucket_based', 'skewed_shards', 'multi_select', None): (
        '0x1.04962587b4000p-14,0x1.fe613d63f7b04p-3,0x1.fdae7c29d0332p-2,0x1.820bddfeb3fd3p-1,0x1.fffa819d967f8p-1',
        '0x1.aaf6f63d31df1p-4',
        '43:0ef0269c8ae71639',
        'broadcast:44/88/1 combine:44/88/1 gather:44/88/1',
    ),
    ('hybrid_median_of_medians', 'random', 'select', None): (
        '0x1.524e13fddc692p-2',
        '0x1.61f552fdd3d5dp-6',
        '10:c6d84faeb439d74c',
        'allgather:9/18/1 alltoallv:9/9/3 broadcast:10/20/1 combine:11/22/1 gather:10/20/1',
    ),
    ('hybrid_median_of_medians', 'random', 'multi_select', None): (
        '0x1.4c1e7d3ef8000p-15,0x1.ffae7611acf18p-3,0x1.fd22c536eb09ap-2,0x1.812cd564d5021p-1,0x1.fffa819d967f8p-1',
        '0x1.10bcb0f5d6b0ep-4',
        '43:cb9ac678de269faa',
        'allgather:39/78/1 alltoallv:39/39/3 broadcast:44/88/1 combine:44/88/1 gather:44/88/1',
    ),
    ('hybrid_median_of_medians', 'sorted', 'select', None): (
        '0x1.4d40000000000p+12',
        '0x1.0de997deae766p-5',
        '13:1c277cd48f7bc2e2',
        'allgather:13/26/1 alltoallv:13/13/3 broadcast:14/28/1 combine:14/28/1 gather:14/28/1',
    ),
    ('hybrid_median_of_medians', 'sorted', 'multi_select', None): (
        '0x0.0p+0,0x1.f3e0000000000p+11,0x1.f3f0000000000p+12,0x1.76f8000000000p+13,0x1.f3f8000000000p+13',
        '0x1.c1c9a6a79f174p-4',
        '49:e05df4bd423ffcec',
        'allgather:45/90/1 alltoallv:45/45/3 broadcast:50/100/1 combine:50/100/1 gather:50/100/1',
    ),
    ('hybrid_median_of_medians', 'few_distinct', 'select', None): (
        '0x1.0000000000000p+1',
        '0x1.7c39a1e23d776p-7',
        '3:04c4d3ecd32d3a18',
        'allgather:2/4/1 alltoallv:2/2/2 broadcast:3/6/1 combine:4/8/1 gather:3/6/1',
    ),
    ('hybrid_median_of_medians', 'few_distinct', 'multi_select', None): (
        '0x0.0p+0,0x1.0000000000000p+1,0x1.0000000000000p+2,0x1.8000000000000p+2,0x1.c000000000000p+2',
        '0x1.39fc45605c613p-6',
        '7:9a306a23cdad88f6',
        'broadcast:7/14/1 combine:8/16/1 gather:7/14/1',
    ),
    ('hybrid_median_of_medians', 'skewed_shards', 'select', None): (
        '0x1.50ef04ad5e73ep-2',
        '0x1.0913a4f8726cep-5',
        '11:28301a93ada20f0a',
        'allgather:11/22/1 alltoallv:11/11/3 broadcast:12/24/1 combine:12/24/1 gather:12/24/1',
    ),
    ('hybrid_median_of_medians', 'skewed_shards', 'multi_select', None): (
        '0x1.04962587b4000p-14,0x1.fe613d63f7b04p-3,0x1.fdae7c29d0332p-2,0x1.820bddfeb3fd3p-1,0x1.fffa819d967f8p-1',
        '0x1.686162f166e0fp-4',
        '43:ed86358d08f2ca1c',
        'allgather:39/78/1 alltoallv:39/39/3 broadcast:44/88/1 combine:44/88/1 gather:44/88/1',
    ),
    ('median_of_medians', 'random', 'select', None): (
        '0x1.524e13fddc692p-2',
        '0x1.6415e6f212003p-3',
        '10:c6d84faeb439d74c',
        'allgather:9/18/1 alltoallv:9/9/3 broadcast:10/20/1 combine:11/22/1 gather:10/20/1',
    ),
    ('median_of_medians', 'random', 'multi_select', None): (
        '0x1.4c1e7d3ef8000p-15,0x1.ffae7611acf18p-3,0x1.fd22c536eb09ap-2,0x1.812cd564d5021p-1,0x1.fffa819d967f8p-1',
        '0x1.97347f638d6ecp-2',
        '43:cb9ac678de269faa',
        'allgather:39/78/1 alltoallv:39/39/3 broadcast:44/88/1 combine:44/88/1 gather:44/88/1',
    ),
    ('median_of_medians', 'sorted', 'select', None): (
        '0x1.4d40000000000p+12',
        '0x1.828e77fd679ebp-3',
        '13:1c277cd48f7bc2e2',
        'allgather:13/26/1 alltoallv:13/13/3 broadcast:14/28/1 combine:14/28/1 gather:14/28/1',
    ),
    ('median_of_medians', 'sorted', 'multi_select', None): (
        '0x0.0p+0,0x1.f3e0000000000p+11,0x1.f3f0000000000p+12,0x1.76f8000000000p+13,0x1.f3f8000000000p+13',
        '0x1.66cb1f4da3221p-1',
        '49:e05df4bd423ffcec',
        'allgather:45/90/1 alltoallv:45/45/3 broadcast:50/100/1 combine:50/100/1 gather:50/100/1',
    ),
    ('median_of_medians', 'few_distinct', 'select', None): (
        '0x1.0000000000000p+1',
        '0x1.009316c899617p-3',
        '3:04c4d3ecd32d3a18',
        'allgather:2/4/1 alltoallv:2/2/2 broadcast:3/6/1 combine:4/8/1 gather:3/6/1',
    ),
    ('median_of_medians', 'few_distinct', 'multi_select', None): (
        '0x0.0p+0,0x1.0000000000000p+1,0x1.0000000000000p+2,0x1.8000000000000p+2,0x1.c000000000000p+2',
        '0x1.b26648337577fp-3',
        '7:9a306a23cdad88f6',
        'broadcast:7/14/1 combine:8/16/1 gather:7/14/1',
    ),
    ('median_of_medians', 'skewed_shards', 'select', None): (
        '0x1.50ef04ad5e73ep-2',
        '0x1.0bbc2b94d940cp-2',
        '11:28301a93ada20f0a',
        'allgather:11/22/1 alltoallv:11/11/3 broadcast:12/24/1 combine:12/24/1 gather:12/24/1',
    ),
    ('median_of_medians', 'skewed_shards', 'multi_select', None): (
        '0x1.04962587b4000p-14,0x1.fe613d63f7b04p-3,0x1.fdae7c29d0332p-2,0x1.820bddfeb3fd3p-1,0x1.fffa819d967f8p-1',
        '0x1.5169b17481b33p-1',
        '43:ed86358d08f2ca1c',
        'allgather:39/78/1 alltoallv:39/39/3 broadcast:44/88/1 combine:44/88/1 gather:44/88/1',
    ),
    ('randomized', 'random', 'select', None): (
        '0x1.524e13fddc692p-2',
        '0x1.7907888a7d9cap-6',
        '24:c1574f3104f3a658',
        'broadcast:1/2/1 combine:49/98/1 gather:1/2/1 prefix:24/48/1',
    ),
    ('randomized', 'random', 'multi_select', None): (
        '0x1.4c1e7d3ef8000p-15,0x1.ffae7611acf18p-3,0x1.fd22c536eb09ap-2,0x1.812cd564d5021p-1,0x1.fffa819d967f8p-1',
        '0x1.3a4fbcd6b5847p-5',
        '45:b869375e77207dbf',
        'broadcast:1/2/1 combine:91/182/1 gather:1/2/1 prefix:45/90/1',
    ),
    ('randomized', 'sorted', 'select', None): (
        '0x1.4d40000000000p+12',
        '0x1.8f57f737da61bp-6',
        '15:22278098df3ad221',
        'broadcast:1/2/1 combine:31/62/1 gather:1/2/1 prefix:15/30/1',
    ),
    ('randomized', 'sorted', 'multi_select', None): (
        '0x0.0p+0,0x1.f3e0000000000p+11,0x1.f3f0000000000p+12,0x1.76f8000000000p+13,0x1.f3f8000000000p+13',
        '0x1.946e165e10582p-5',
        '40:e3a354d17b9e65b0',
        'broadcast:1/2/1 combine:81/162/1 gather:1/2/1 prefix:40/80/1',
    ),
    ('randomized', 'few_distinct', 'select', None): (
        '0x1.0000000000000p+1',
        '0x1.64f11b60ae967p-8',
        '3:62274cfa77301f8f',
        'combine:7/14/1 prefix:3/6/1',
    ),
    ('randomized', 'few_distinct', 'multi_select', None): (
        '0x0.0p+0,0x1.0000000000000p+1,0x1.0000000000000p+2,0x1.8000000000000p+2,0x1.c000000000000p+2',
        '0x1.1cf42c8d26c47p-7',
        '6:39ec1340e95425e2',
        'combine:13/26/1 prefix:6/12/1',
    ),
    ('randomized', 'skewed_shards', 'select', None): (
        '0x1.50ef04ad5e73ep-2',
        '0x1.927ca4964cdddp-6',
        '15:b911c249065cafe3',
        'broadcast:1/2/1 combine:31/62/1 gather:1/2/1 prefix:15/30/1',
    ),
    ('randomized', 'skewed_shards', 'multi_select', None): (
        '0x1.04962587b4000p-14,0x1.fe613d63f7b04p-3,0x1.fdae7c29d0332p-2,0x1.820bddfeb3fd3p-1,0x1.fffa819d967f8p-1',
        '0x1.c11ce5e9d4473p-5',
        '50:a0bad40cce996592',
        'broadcast:1/2/1 combine:101/202/1 gather:1/2/1 prefix:50/100/1',
    ),
    ('sort_based', 'random', 'select', None): (
        '0x1.524e13fddc692p-2',
        '0x1.402684211fabdp-5',
        '0:da39a3ee5e6b4b0d',
        'allgather:1/2/1 alltoallv:1/1/3 broadcast:2/4/1 combine:1/2/1 gather:1/2/1',
    ),
    ('sort_based', 'random', 'multi_select', None): (
        '0x1.4c1e7d3ef8000p-15,0x1.ffae7611acf18p-3,0x1.fd22c536eb09ap-2,0x1.812cd564d5021p-1,0x1.fffa819d967f8p-1',
        '0x1.40374b18c061bp-5',
        '0:da39a3ee5e6b4b0d',
        'allgather:2/4/1 alltoallv:1/1/3 broadcast:1/2/1 combine:1/2/1 gather:1/2/1',
    ),
    ('sort_based', 'sorted', 'select', None): (
        '0x1.4d40000000000p+12',
        '0x1.d7e285ed65e16p-6',
        '0:da39a3ee5e6b4b0d',
        'allgather:1/2/1 alltoallv:1/1/1 broadcast:2/4/1 combine:1/2/1 gather:1/2/1',
    ),
    ('sort_based', 'sorted', 'multi_select', None): (
        '0x0.0p+0,0x1.f3e0000000000p+11,0x1.f3f0000000000p+12,0x1.76f8000000000p+13,0x1.f3f8000000000p+13',
        '0x1.d80413dca74d4p-6',
        '0:da39a3ee5e6b4b0d',
        'allgather:2/4/1 alltoallv:1/1/1 broadcast:1/2/1 combine:1/2/1 gather:1/2/1',
    ),
    ('sort_based', 'few_distinct', 'select', None): (
        '0x1.0000000000000p+1',
        '0x1.5eecad65bc93cp-5',
        '0:da39a3ee5e6b4b0d',
        'allgather:1/2/1 alltoallv:1/1/3 broadcast:2/4/1 combine:1/2/1 gather:1/2/1',
    ),
    ('sort_based', 'few_distinct', 'multi_select', None): (
        '0x0.0p+0,0x1.0000000000000p+1,0x1.0000000000000p+2,0x1.8000000000000p+2,0x1.c000000000000p+2',
        '0x1.5efd745d5d49ap-5',
        '0:da39a3ee5e6b4b0d',
        'allgather:2/4/1 alltoallv:1/1/3 broadcast:1/2/1 combine:1/2/1 gather:1/2/1',
    ),
    ('sort_based', 'skewed_shards', 'select', None): (
        '0x1.50ef04ad5e73ep-2',
        '0x1.13c4411512119p-4',
        '0:da39a3ee5e6b4b0d',
        'allgather:1/2/1 alltoallv:1/1/3 broadcast:2/4/1 combine:1/2/1 gather:1/2/1',
    ),
    ('sort_based', 'skewed_shards', 'multi_select', None): (
        '0x1.04962587b4000p-14,0x1.fe613d63f7b04p-3,0x1.fdae7c29d0332p-2,0x1.820bddfeb3fd3p-1,0x1.fffa819d967f8p-1',
        '0x1.13cca490e26c9p-4',
        '0:da39a3ee5e6b4b0d',
        'allgather:2/4/1 alltoallv:1/1/3 broadcast:1/2/1 combine:1/2/1 gather:1/2/1',
    ),
    ('bucket_based', 'random', 'sketch_select', None): (
        '0x1.524e13fddc692p-2',
        '0x1.ec4750f76958ap-6',
        '2:78e43a952b683c0c',
        'allgather:1/2/1 broadcast:2/4/1 combine:4/8/1 gather:2/4/1',
    ),
    ('bucket_based', 'random', 'sketch_multi_select', None): (
        '0x1.4c1e7d3ef8000p-15,0x1.ffae7611acf18p-3,0x1.fd22c536eb09ap-2,0x1.812cd564d5021p-1,0x1.fffa819d967f8p-1',
        '0x1.15af8741a840dp-4',
        '22:624aa70425e71488',
        'allgather:1/2/1 broadcast:23/46/1 combine:24/48/1 gather:23/46/1',
    ),
    ('fast_randomized', 'random', 'sketch_select', None): (
        '0x1.524e13fddc692p-2',
        '0x1.c70867ad8e433p-6',
        '0:da39a3ee5e6b4b0d',
        'allgather:1/2/1 broadcast:1/2/1 combine:2/4/1 gather:1/2/1',
    ),
    ('fast_randomized', 'random', 'sketch_multi_select', None): (
        '0x1.4c1e7d3ef8000p-15,0x1.ffae7611acf18p-3,0x1.fd22c536eb09ap-2,0x1.812cd564d5021p-1,0x1.fffa819d967f8p-1',
        '0x1.26dacabc51548p-5',
        '0:da39a3ee5e6b4b0d',
        'allgather:1/2/1 broadcast:1/2/1 combine:2/4/1 gather:1/2/1',
    ),
    ('hybrid_bucket_based', 'random', 'sketch_select', None): (
        '0x1.524e13fddc692p-2',
        '0x1.d1c6d1e108c40p-6',
        '2:78e43a952b683c0c',
        'allgather:1/2/1 broadcast:2/4/1 combine:4/8/1 gather:2/4/1',
    ),
    ('hybrid_bucket_based', 'random', 'sketch_multi_select', None): (
        '0x1.4c1e7d3ef8000p-15,0x1.ffae7611acf18p-3,0x1.fd22c536eb09ap-2,0x1.812cd564d5021p-1,0x1.fffa819d967f8p-1',
        '0x1.8f440af1cb897p-5',
        '22:624aa70425e71488',
        'allgather:1/2/1 broadcast:23/46/1 combine:24/48/1 gather:23/46/1',
    ),
    ('hybrid_median_of_medians', 'random', 'sketch_select', None): (
        '0x1.524e13fddc692p-2',
        '0x1.d5b2b9fc0fb06p-6',
        '2:78e43a952b683c0c',
        'allgather:2/4/1 alltoallv:1/1/2 broadcast:2/4/1 combine:4/8/1 gather:2/4/1',
    ),
    ('hybrid_median_of_medians', 'random', 'sketch_multi_select', None): (
        '0x1.4c1e7d3ef8000p-15,0x1.ffae7611acf18p-3,0x1.fd22c536eb09ap-2,0x1.812cd564d5021p-1,0x1.fffa819d967f8p-1',
        '0x1.c5d23c7856520p-5',
        '23:4346cdd8af690335',
        'allgather:20/40/1 alltoallv:19/19/3 broadcast:24/48/1 combine:25/50/1 gather:24/48/1',
    ),
    ('median_of_medians', 'random', 'sketch_select', None): (
        '0x1.524e13fddc692p-2',
        '0x1.0054188608c31p-5',
        '2:78e43a952b683c0c',
        'allgather:2/4/1 alltoallv:1/1/2 broadcast:2/4/1 combine:4/8/1 gather:2/4/1',
    ),
    ('median_of_medians', 'random', 'sketch_multi_select', None): (
        '0x1.4c1e7d3ef8000p-15,0x1.ffae7611acf18p-3,0x1.fd22c536eb09ap-2,0x1.812cd564d5021p-1,0x1.fffa819d967f8p-1',
        '0x1.41db1c1ae8b99p-4',
        '23:4346cdd8af690335',
        'allgather:20/40/1 alltoallv:19/19/3 broadcast:24/48/1 combine:25/50/1 gather:24/48/1',
    ),
    ('randomized', 'random', 'sketch_select', None): (
        '0x1.524e13fddc692p-2',
        '0x1.14af4f0d844d4p-5',
        '11:014d81a7716cae7b',
        'allgather:1/2/1 combine:24/48/1 prefix:11/22/1',
    ),
    ('randomized', 'random', 'sketch_multi_select', None): (
        '0x1.4c1e7d3ef8000p-15,0x1.ffae7611acf18p-3,0x1.fd22c536eb09ap-2,0x1.812cd564d5021p-1,0x1.fffa819d967f8p-1',
        '0x1.659edb21fa275p-5',
        '17:4c3adb4b794759a7',
        'allgather:1/2/1 broadcast:1/2/1 combine:36/72/1 gather:1/2/1 prefix:17/34/1',
    ),
    ('sort_based', 'random', 'sketch_select', None): (
        '0x1.524e13fddc692p-2',
        '0x1.d31eff2d7289bp-6',
        '0:da39a3ee5e6b4b0d',
        'allgather:2/4/1 alltoallv:1/1/3 broadcast:2/4/1 combine:2/4/1 gather:1/2/1',
    ),
    ('sort_based', 'random', 'sketch_multi_select', None): (
        '0x1.4c1e7d3ef8000p-15,0x1.ffae7611acf18p-3,0x1.fd22c536eb09ap-2,0x1.812cd564d5021p-1,0x1.fffa819d967f8p-1',
        '0x1.1fd608c2a37bcp-5',
        '0:da39a3ee5e6b4b0d',
        'allgather:3/6/1 alltoallv:1/1/3 broadcast:1/2/1 combine:2/4/1 gather:1/2/1',
    ),
    ('fast_randomized', 'few_distinct', 'select', 'pool'): (
        '0x1.0000000000000p+1',
        '0x1.6f7b828fd8774p-6',
        '5:27ed9c0fd9a90ec0',
        'allgather:10/20/1 alltoallv:5/5/3 broadcast:16/32/1 combine:11/22/1 gather:6/12/1',
    ),
    ('fast_randomized', 'few_distinct', 'multi_select', 'pool'): (
        '0x0.0p+0,0x1.0000000000000p+1,0x1.0000000000000p+2,0x1.8000000000000p+2,0x1.c000000000000p+2',
        '0x1.3d45ed3caf9e1p-7',
        '1:7804c3d40d71f119',
        'allgather:2/4/1 alltoallv:1/1/3 broadcast:1/2/1 combine:3/6/1 gather:1/2/1',
    ),
}


@pytest.mark.parametrize(
    "row", GRID, ids=["-".join(str(x) for x in row if x) for row in GRID]
)
def test_row_matches_pin(row):
    assert observe(*row) == PINS[row]

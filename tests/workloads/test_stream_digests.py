"""Pin the packed reference streams themselves, not only the results.

The golden ``RunResult`` digests catch any stream drift, but not which
layer moved.  These SHA-256 digests cover the three packed columns of every
node's stream for all five profiles at scale 0.1, and were recorded with
the one-draw think-time sampler.
"""

import hashlib
import sys
from itertools import product

import pytest

from repro.sim.randomness import DeterministicRandom
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.profiles import PROFILES

# profile, nodes, seed, SHA-256 of every node's blocks/access_codes/think.
RECORDED = """
altavista 4 7 bd510c4d7ed3a87a7f7c76959eb9febdf9ab32f504326673da4125538b4747b7
altavista 4 42 d1781ff1e7f668fa333d952ffb6aeedd3a7708062ee8fe290ac6abce1a878f81
altavista 64 7 3f503f33d4eb70fb7f413407b301e12287a596355174fbac9e2b0bf88bbde91e
altavista 64 42 6e00eb4b893dd73d1c5fb92346ea90de0a0c35274263109cf1b89eba0c99ecf4
apache 4 7 fa1ec60e86d9990e3c96a2ce777ea12247b1abf68f98bf27238f98a314b8ff7e
apache 4 42 813e58b094786c03f8d55a93ea2062d9e9662956fda604ff1e9a77c6bb044c1c
apache 64 7 f4e90b6cf70e8d441afaafd83fbd4ea95cc8f4e42269f5242f307ade168d3e56
apache 64 42 2ae9cdcb122ff65043ed4255328c358af28b59882e30acdc69d64d65e76bd98a
barnes 4 7 c7eea9e534c30d656c80effda830ac1f7e290cfabf4aad1502dcc0566c97aa38
barnes 4 42 6cede01fed1db27418080bc86a6e9a6809830130712cdeb00af5c663a53644f0
barnes 64 7 9895922119fc802d0ca25eac3c9acde4cbdcd789d73263888435e6a23dcc67ed
barnes 64 42 927c758239a6b175a8b27e4de5aa74a5de845afd6b9515457c46cc698db45d24
dss 4 7 30365268496d3e719c53e5daa420b824d03e3e03d0c3ebf28e2cef99a4a55677
dss 4 42 188136a285135f54b282e435d5158b4f9cfd849cc81519a73ee26f6e37dd037c
dss 64 7 c7767d37f72f94c85cbee7b63c081bff4ff8f73692f8e1d547eb754fd27e7fb5
dss 64 42 a9cb85ff9a3359bf81abe41ab434acea7316a08995a0d51d8cb7d0ece211b3e9
oltp 4 7 ad9f835e7ebd6447020c70dad8ab929af81ffab57a0c1961edf5054daa5a7a14
oltp 4 42 7156e6780fc26ca07848679133f304d071f5b59246cd83dbcca811e79567041f
oltp 64 7 605bbb7da7a67adfb1ad7ab817ab6c8017f5c50e7aeb489a2d5ba9f9555409b2
oltp 64 42 82171e00556a61091ccf0fc24e842eb44a44b1765b5434b9e7c88b67527db8be
"""
STREAM_DIGESTS = {
    (name, int(nodes), int(seed)): digest
    for name, nodes, seed, digest in map(str.split, RECORDED.strip().splitlines())
}


def _column_bytes(column) -> bytes:
    if sys.byteorder == "big":
        column = type(column)(column.typecode, column)
        column.byteswap()
    return column.tobytes()


def stream_digest(name: str, num_nodes: int, seed: int) -> str:
    profile = PROFILES[name].scaled(0.1)
    streams = WorkloadGenerator(
        profile, num_nodes, DeterministicRandom(seed)
    ).build_streams()
    digest = hashlib.sha256()
    for stream in streams:
        for column in (stream.blocks, stream.access_codes, stream.think):
            digest.update(_column_bytes(column))
    return digest.hexdigest()


def test_every_profile_node_count_and_seed_is_recorded():
    assert sorted(STREAM_DIGESTS) == sorted(product(PROFILES, (4, 64), (7, 42)))


@pytest.mark.parametrize("name,num_nodes,seed", sorted(STREAM_DIGESTS))
def test_stream_columns_match_recorded_digest(name, num_nodes, seed):
    expected = STREAM_DIGESTS[(name, num_nodes, seed)]
    assert stream_digest(name, num_nodes, seed) == expected

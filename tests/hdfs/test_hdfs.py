"""Unit tests for blocks, NameNode, DataNode, and the client paths."""

import pytest

from repro.perf import PAPER_CALIBRATION
from repro.perf.calibration import MB
from repro.cluster import Network, Node, QS22_SPEC
from repro.hdfs import DataNode, HDFSClient, HDFSError, NameNode
from repro.hdfs.blocks import Block, BlockMap, FileMeta
from repro.sim import Environment
from repro.sim.rng import RandomStreams

CAL = PAPER_CALIBRATION


def make_hdfs(n_nodes=4, block_size=64 * MB, replication=1):
    env = Environment()
    net = Network(env, CAL)
    nn = NameNode(env, block_size=block_size, replication=replication, rng=RandomStreams(1))
    nodes = []
    for i in range(n_nodes):
        node = Node(env, i + 1, QS22_SPEC, CAL)
        net.attach(node)
        nn.register_datanode(DataNode(node, net))
        nodes.append(node)
    return env, net, nn, HDFSClient(nn), nodes


# --------------------------------------------------------------------------- #
# Blocks / FileMeta                                                             #
# --------------------------------------------------------------------------- #
def test_filemeta_blocks_for_range():
    meta = FileMeta(path="/f", size=300, block_size=100)
    meta.blocks = [Block(i, "/f", i, 100) for i in range(3)]
    assert [b.index for b in meta.blocks_for_range(0, 100)] == [0]
    assert [b.index for b in meta.blocks_for_range(50, 100)] == [0, 1]
    assert [b.index for b in meta.blocks_for_range(100, 200)] == [1, 2]
    assert meta.blocks_for_range(0, 0) == []
    with pytest.raises(ValueError):
        meta.blocks_for_range(-1, 10)


def test_blockmap_remove_node():
    bm = BlockMap()
    b = Block(1, "/f", 0, 10)
    bm.add(b, 3)
    bm.add(b, 5)
    assert b.locations == [3, 5]
    affected = bm.remove_node(3)
    assert affected == [b]
    assert b.locations == [5]
    assert len(bm.blocks_on(3)) == 0


# --------------------------------------------------------------------------- #
# NameNode                                                                      #
# --------------------------------------------------------------------------- #
def test_allocate_splits_into_blocks():
    _env, _net, nn, client, _nodes = make_hdfs()
    meta = client.ingest_file("/data", 200 * MB)
    assert [b.size for b in meta.blocks] == [64 * MB, 64 * MB, 64 * MB, 8 * MB]
    assert all(len(b.locations) == 1 for b in meta.blocks)


def test_contiguous_placement_clusters_blocks():
    _env, _net, nn, client, _nodes = make_hdfs(n_nodes=4)
    meta = client.ingest_file("/data", 16 * 64 * MB, placement="contiguous")
    homes = [b.locations[0] for b in meta.blocks]
    # 16 blocks over 4 nodes: 4 contiguous runs.
    runs = 1 + sum(1 for a, b in zip(homes, homes[1:]) if a != b)
    assert runs == 4
    assert len(set(homes)) == 4


def test_roundrobin_placement_spreads_blocks():
    _env, _net, nn, client, _nodes = make_hdfs(n_nodes=4)
    meta = client.ingest_file("/data", 8 * 64 * MB, placement="roundrobin")
    homes = [b.locations[0] for b in meta.blocks]
    assert len(set(homes)) == 4  # all nodes hold something


def test_replication_places_distinct_replicas():
    _env, _net, nn, client, _nodes = make_hdfs(n_nodes=4, replication=3)
    meta = client.ingest_file("/data", 64 * MB, replication=3)
    locs = meta.blocks[0].locations
    assert len(locs) == 3
    assert len(set(locs)) == 3


def test_replication_exceeding_nodes_rejected():
    _env, _net, nn, client, _nodes = make_hdfs(n_nodes=2)
    with pytest.raises(HDFSError):
        client.ingest_file("/data", 64 * MB, replication=5)


def test_duplicate_path_rejected():
    _env, _net, nn, client, _nodes = make_hdfs()
    client.ingest_file("/data", MB)
    with pytest.raises(HDFSError):
        client.ingest_file("/data", MB)


def test_missing_file_raises():
    _env, _net, nn, _client, _nodes = make_hdfs()
    with pytest.raises(HDFSError):
        nn.file_meta("/ghost")


def test_delete_removes_blocks_everywhere():
    _env, _net, nn, client, _nodes = make_hdfs()
    meta = client.ingest_file("/data", 128 * MB)
    block_ids = [b.block_id for b in meta.blocks]
    nn.delete("/data")
    assert not nn.exists("/data")
    for node_id in nn.datanode_ids:
        dn = nn.datanode(node_id)
        assert not any(dn.has_block(bid) for bid in block_ids)


def test_datanode_failure_degrades_blocks():
    _env, _net, nn, client, _nodes = make_hdfs(n_nodes=3)
    meta = client.ingest_file("/data", 3 * 64 * MB, placement="contiguous")
    victim = meta.blocks[0].locations[0]
    affected = nn.handle_datanode_failure(victim)
    assert any(not b.locations for b in affected)
    assert victim not in nn.datanode_ids


def test_locate_returns_ranged_blocks():
    _env, _net, nn, client, _nodes = make_hdfs()
    client.ingest_file("/data", 200 * MB)
    blocks = nn.locate("/data", offset=70 * MB, length=10 * MB)
    assert [b.index for b in blocks] == [1]


# --------------------------------------------------------------------------- #
# DataNode serving & client reads                                               #
# --------------------------------------------------------------------------- #
def test_local_read_uses_loopback():
    env, net, nn, client, nodes = make_hdfs(n_nodes=2)
    meta = client.ingest_file("/data", 64 * MB, placement="contiguous")
    block = meta.blocks[0]
    reader = next(n for n in nodes if n.node_id == block.locations[0])

    def go():
        yield from client.read_block(block, reader)

    env.process(go())
    env.run()
    assert net.local_bytes == 64 * MB
    assert nn.datanode(reader.node_id).reads_local == 1


def test_remote_read_crosses_network():
    env, net, nn, client, nodes = make_hdfs(n_nodes=2)
    meta = client.ingest_file("/data", 64 * MB, placement="contiguous")
    block = meta.blocks[0]
    reader = next(n for n in nodes if n.node_id != block.locations[0])

    def go():
        yield from client.read_block(block, reader)

    env.process(go())
    env.run()
    assert net.remote_bytes == 64 * MB


def test_payload_roundtrip_through_blocks():
    env, _net, nn, client, nodes = make_hdfs(block_size=1024)
    payload = bytes(range(256)) * 10  # 2560 bytes -> 3 blocks
    client.ingest_file("/data", len(payload), payload=payload)

    def go():
        data = yield from client.read_file("/data", nodes[0])
        return data

    got = env.run(env.process(go()))
    assert got == payload


def test_write_file_places_first_replica_on_writer():
    env, _net, nn, client, nodes = make_hdfs(n_nodes=3)

    def go():
        meta = yield from client.write_file("/out", 64 * MB, nodes[1])
        return meta

    meta = env.run(env.process(go()))
    assert meta.blocks[0].locations[0] == nodes[1].node_id
    assert env.now > 0  # transfer + disk time was charged


def test_read_block_truncated_length():
    env, _net, nn, client, nodes = make_hdfs(block_size=1024)
    payload = b"x" * 1024
    meta = client.ingest_file("/data", 1024, payload=payload)

    def go():
        data = yield from client.read_block(meta.blocks[0], nodes[0], length=100)
        return data

    got = env.run(env.process(go()))
    assert got == payload[:100]


def test_choose_replica_prefers_local():
    _env, _net, nn, client, nodes = make_hdfs(n_nodes=3, replication=2)
    meta = client.ingest_file("/data", 64 * MB, replication=2)
    block = meta.blocks[0]
    local_reader = next(n for n in nodes if n.node_id in block.locations)
    assert client.choose_replica(block, local_reader) == local_reader.node_id


def test_read_with_no_replicas_fails():
    env, _net, nn, client, nodes = make_hdfs(n_nodes=2)
    meta = client.ingest_file("/data", 64 * MB)
    nn.handle_datanode_failure(meta.blocks[0].locations[0])

    def go():
        yield from client.read_block(meta.blocks[0], nodes[0])

    env.process(go())
    with pytest.raises(HDFSError):
        env.run()


def test_datanode_stream_limit_serializes():
    env, _net, nn, client, nodes = make_hdfs(n_nodes=2)
    # Rebuild a datanode with max_streams=1 to observe serialization.
    node = nodes[0]
    dn = nn.datanode(node.node_id)
    dn._streams.capacity = 1
    # Eight 64 MB blocks over two nodes: contiguous placement puts the
    # first four on this node.
    meta = client.ingest_file("/data", 512 * MB, placement="contiguous")
    blocks = [b for b in meta.blocks if b.locations[0] == node.node_id]
    assert len(blocks) >= 2
    ends = []

    def go(b):
        yield from dn.serve_block(b, node)
        ends.append(env.now)

    for b in blocks[:2]:
        env.process(go(b))
    env.run()
    assert ends[1] >= ends[0] * 1.9

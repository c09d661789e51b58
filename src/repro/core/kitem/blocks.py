"""r-blocks and the block transmission digraph (Section 3.4, Figure 3).

The single-sending construction of Theorem 3.7 organizes the ``P - 1``
non-source processors into *blocks*: one block of ``r`` processors per
internal node of the optimal ``t``-step tree with ``r`` children (its
members take turns being the *r-sender*, i.e. receiving the item actively
during the optimal broadcast phase), plus one receive-only processor.

The *block transmission digraph* records how each item flows between
blocks each "period":

* a **thick** (active) edge into every block from the block holding its
  tree parent (the largest block receives its active copy from the
  source, drawn from the special vertex ``"src"``);
* **weighted** (inactive) edges carrying the endgame copies, assigned by
  the paper's case analysis — self-loops for the within-block
  receptions, 1-blocks feeding the giants and the receive-only vertex
  ``0``, helper blocks one size larger than needed whose spare
  transmissions feed the 2-blocks.

Flow conservation holds at every vertex: inbound weight equals the block
size ``r`` (one copy per member per item) and outbound weight equals the
``r`` transmissions its r-sender makes per item.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import networkx as nx

from repro.core.tree import tree_for_time
from repro.params import postal

__all__ = ["BlockLayout", "block_layout", "block_transmission_digraph"]


@dataclass
class BlockLayout:
    """The block decomposition for ``P - 1 = P(t)`` processors.

    ``blocks[i]`` is the size of the ``i``-th block (descending); block
    ``i`` serves tree node ``node_of_block[i]``.  The receive-only
    processor is not in any block.
    """

    L: int
    t: int
    blocks: list[int]
    node_of_block: list[int]
    tree_nodes: int

    @property
    def P_minus_1(self) -> int:
        return sum(self.blocks) + 1

    def sizes(self) -> Counter:
        return Counter(self.blocks)


def block_layout(t: int, L: int) -> BlockLayout:
    """Decompose the optimal ``t``-step tree into r-blocks."""
    tree = tree_for_time(t, postal(P=1, L=L))
    internal = sorted(
        tree.internal_nodes(), key=lambda n: (-n.out_degree, n.delay, n.index)
    )
    return BlockLayout(
        L=L,
        t=t,
        blocks=[n.out_degree for n in internal],
        node_of_block=[n.index for n in internal],
        tree_nodes=len(tree),
    )


def block_transmission_digraph(t: int, L: int) -> nx.MultiDiGraph:
    """Build the digraph of Figure 3 for ``P - 1 = P(t)``, odd ``L``.

    Vertices: one per block, keyed ``("blk", i)`` with a ``size``
    attribute; ``("recv", 0)`` for the receive-only processor (label 0);
    ``"src"`` for the source.  Edges carry ``kind`` (``"active"`` or
    ``"inactive"``) and ``weight`` (copies per item).  Raises
    ``ValueError`` when the paper's accounting cannot be balanced (the
    construction is stated for odd ``L`` and ``P - 1 = P(t)``).
    """
    if L % 2 == 0:
        raise ValueError("the paper's endgame accounting is stated for odd L")
    layout = block_layout(t, L)
    tree = tree_for_time(t, postal(P=1, L=L))
    sizes = layout.blocks
    graph = nx.MultiDiGraph()
    graph.add_node("src", size=None)
    graph.add_node(("recv", 0), size=0)
    for i, r in enumerate(sizes):
        graph.add_node(("blk", i), size=r)

    block_of_node = {
        node: i for i, node in enumerate(layout.node_of_block)
    }

    # --- active (thick) edges: tree parent -> child, among internal nodes
    for i, node_index in enumerate(layout.node_of_block):
        node = tree.nodes[node_index]
        if node.parent is None:
            graph.add_edge("src", ("blk", i), kind="active", weight=1)
        else:
            parent_block = block_of_node[node.parent]
            graph.add_edge(
                ("blk", parent_block), ("blk", i), kind="active", weight=1
            )

    # --- inactive edges per the Theorem 3.7 case analysis ---------------
    # available outbound inactive capacity per block: min(L, r), minus
    # what the case analysis reserves.
    by_size: dict[int, list[int]] = defaultdict(list)
    for i, r in enumerate(sizes):
        by_size[r].append(i)

    free_ones = list(by_size.get(1, []))  # 1-blocks, each 1 send/item
    spare_donors: list[int] = []  # blocks with one spare send per item

    def take_helper(size: int) -> int:
        """Claim an unused helper block of exactly ``size``."""
        pool = helpers_free.get(size, [])
        if not pool:
            raise ValueError(
                f"endgame accounting failed: no free helper block of size {size} "
                f"(t={t}, L={L})"
            )
        return pool.pop()

    # helper availability: blocks can serve as helpers only if their own
    # needs leave sends spare; per the paper, helpers are drawn from
    # blocks of size < L (cases 4/5 chain) — we track all blocks whose
    # within-block usage leaves capacity.
    helpers_free: dict[int, list[int]] = defaultdict(list)
    for r in sorted(by_size):
        if r < L:
            helpers_free[r] = list(by_size[r])

    for i, r in enumerate(sizes):
        if r >= 2 * L:
            graph.add_edge(("blk", i), ("blk", i), kind="inactive", weight=L)
            for _ in range(r - 2 * L):
                donor = free_ones.pop()
                graph.add_edge(
                    ("blk", donor), ("blk", i), kind="inactive", weight=1
                )
                helpers_free[1].remove(donor)
            helper = take_helper(L - 1)
            graph.add_edge(
                ("blk", helper), ("blk", i), kind="inactive", weight=L - 1
            )
        elif L + 1 < r < 2 * L:
            graph.add_edge(("blk", i), ("blk", i), kind="inactive", weight=L)
            helper = take_helper(r - L)
            graph.add_edge(
                ("blk", helper), ("blk", i), kind="inactive", weight=r - L - 1
            )
            spare_donors.append(helper)  # helper one larger than needed
        elif r == L + 1:
            graph.add_edge(("blk", i), ("blk", i), kind="inactive", weight=L)
        elif r == L:
            graph.add_edge(("blk", i), ("blk", i), kind="inactive", weight=L - 1)
            spare_donors.append(i)  # min(L, r) = L sends, L-1 used
        elif 2 < r < L:
            helper = take_helper(r - 1)
            graph.add_edge(
                ("blk", helper), ("blk", i), kind="inactive", weight=r - 1
            )
        # r == 2 handled below from spare donors; r == 1 all-active.

    for i in by_size.get(2, []):
        if not spare_donors:
            raise ValueError(
                f"endgame accounting failed: no spare send for a 2-block "
                f"(t={t}, L={L})"
            )
        donor = spare_donors.pop()
        graph.add_edge(("blk", donor), ("blk", i), kind="inactive", weight=1)

    if not free_ones:
        raise ValueError(
            f"endgame accounting failed: no 1-block left for the "
            f"receive-only processor (t={t}, L={L})"
        )
    donor = free_ones.pop()
    graph.add_edge(("blk", donor), ("recv", 0), kind="inactive", weight=1)

    _check_flow(graph)
    return graph


def _check_flow(graph: nx.MultiDiGraph) -> None:
    """Verify in-weight == size and in == 1 active edge per block."""
    for node, data in graph.nodes(data=True):
        size = data["size"]
        if size is None:  # the source
            continue
        inbound = sum(d["weight"] for _u, _v, d in graph.in_edges(node, data=True))
        active_in = sum(
            1
            for _u, _v, d in graph.in_edges(node, data=True)
            if d["kind"] == "active"
        )
        if size == 0:
            if inbound != 1 or active_in != 0:
                raise ValueError(f"receive-only vertex has inbound {inbound}")
            continue
        if active_in != 1:
            raise ValueError(f"block {node} has {active_in} active in-edges")
        if inbound != size:
            raise ValueError(
                f"block {node} (size {size}) has inbound weight {inbound}"
            )
        outbound = sum(
            d["weight"] for _u, _v, d in graph.out_edges(node, data=True)
        )
        if outbound != size:
            raise ValueError(
                f"block {node} (size {size}) has outbound weight {outbound}"
            )

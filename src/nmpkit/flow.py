"""Maximum flow of the NMP transportation network, with its minimum cut.

The network has a source s, the left vertices x of a bipartite graph, its
right vertices y and a sink t. Arc s -> x has capacity r, arc y -> t capacity
c, and each graph edge (x, y) is an arc x -> y of capacity min(r, c). That
capacity can never bind: x receives at most r and y passes on at most c. So
the solver treats edge arcs as uncapacitated, and a residual path is
x -> y along any edge and y -> x' back along any edge (x', y) that carries
flow. Dropping the bound leaves the residual reachability of every left
vertex unchanged: an edge (x, y) full at min(r, c) either fills y's sink
arc, leaving x as the only way back from y, or holds all of x's flow, making
y the only way into x.

The solver runs in two stages. A greedy pass fills the lefts in ascending
order of degree, in the spirit of Karp and Sipser's matching heuristic: a
left with few rights goes before the lefts that could take them. Dinic's
blocking-flow phases, as in Hopcroft-Karp, then push along shortest
residual paths from the lefts still short. The first phase needs no search:
a left the greedy pass leaves short has taken all its rights' room, so the
layering with the short lefts and the full rights at level 0, and the other
lefts and the rights with slack at level 1, admits exactly the paths
x -> y -> x2 -> y2. That phase is linear in the edges, as each of its O(1)
augmentations empties an edge or fills a left or a right for good. Every
later phase starts with a breadth-first layering. The last one finds no
right with slack, and what it reaches is the minimum cut's source side.
That side is the same for every maximum flow, so the greedy pass and the
first phase change the flow the solver returns but never the cut.

Flows are Python ints, so r and c may be arbitrarily large.
"""

from __future__ import annotations


def max_flow(
    indptr: list[int], indices: list[int], k: int, n: int, r: int, c: int
) -> tuple[int, list[int], list[int], int]:
    """Maximum s-t flow of the network of a CSR bipartite graph.

    `indices[indptr[x]:indptr[x + 1]]` are the right neighbors of left x,
    sorted. Returns (value, flow, S, |N(S)|):

    - `flow[e]` is the flow on edge `e`, in CSR order;
    - S is the left part of the source side of the minimum cut that every
      maximum flow leaves reachable from s in its residual graph, sorted.
      It is empty exactly when the flow saturates every source arc;
    - |N(S)| counts the right vertices on that source side, which are
      exactly the neighbors of S.

    A greedy pass fills the lefts, then blocking-flow phases augment, the
    first over the two-level layering the greedy pass leaves.
    """
    flow = [0] * len(indices)
    # carried[y] maps each x with flow on edge (x, y) to that edge's index.
    carried: list[dict[int, int]] = [{} for _ in range(n)]
    slack = [c] * n
    deficit = [r] * k

    # Greedy pass: fill the lefts in ascending order of degree (a stable
    # sort), each from its row in ascending order. A left with few choices
    # goes before the lefts that could take its rights.
    degree = [indptr[x + 1] - indptr[x] for x in range(k)]
    for x in sorted(range(k), key=degree.__getitem__):
        need = r
        for e in range(indptr[x], indptr[x + 1]):
            y = indices[e]
            room = slack[y]
            if room:
                f = need if need < room else room
                flow[e] = f
                carried[y][x] = e
                slack[y] = room - f
                need -= f
                if not need:
                    break
        deficit[x] = need

    # First phase, over the two-level layering the greedy pass fixed.
    active = [x for x in range(k) if deficit[x]]
    if active:
        level = [0 if need else 1 for need in deficit]
        ylevel = [1 if room else 0 for room in slack]
        _blocking_flow(indptr, indices, active, level, ylevel, flow, carried, slack, deficit)

    while True:
        active = [x for x in range(k) if deficit[x]]
        level, ylevel, found = _layers(indptr, indices, k, n, active, carried, slack)
        if not found:
            break
        _blocking_flow(indptr, indices, active, level, ylevel, flow, carried, slack, deficit)

    witness = [x for x in range(k) if level[x] >= 0]
    return k * r - sum(deficit), flow, witness, n - ylevel.count(-1)


def _layers(indptr, indices, k, n, active, carried, slack):
    """Breadth-first layers of the residual graph from the deficient lefts.

    Left levels count the backward edges taken; a right gets the level of
    the left that first reaches it. The search stops after the first layer
    holding a right with slack (found = True); otherwise it has reached all
    that s reaches, and the reached vertices are the minimum cut's source
    side.
    """
    level = [-1] * k
    ylevel = [-1] * n
    for x in active:
        level[x] = 0
    frontier = active
    d = 0
    while frontier:
        reached = []
        found = False
        for x in frontier:
            for y in indices[indptr[x]:indptr[x + 1]]:
                if ylevel[y] < 0:
                    ylevel[y] = d
                    if slack[y]:
                        found = True
                    else:
                        reached.append(y)
        if found:
            return level, ylevel, True
        d += 1
        frontier = []
        for y in reached:
            for x2 in carried[y]:
                if level[x2] < 0:
                    level[x2] = d
                    frontier.append(x2)
    return level, ylevel, False


def _blocking_flow(indptr, indices, active, level, ylevel, flow, carried, slack, deficit):
    """Augment along layered paths until none is left (Dinic's blocking flow).

    A path steps from a left of level d to a right of level d, and back
    along an edge carrying flow to a left of level d + 1, until it reaches a
    right with slack. The levels come from `_layers`, or from the greedy
    pass for the first phase. The walk is iterative, so path length is not
    limited by the recursion limit. Each left keeps a pointer into its row
    and each right a list of candidate lefts one level further from s,
    consumed from the end. Exhausted vertices are marked dead by setting
    their level to -1. Arcs created by an augmentation run within a level,
    so they never join the layered graph during the phase. Each augmentation
    empties an edge on its path or fills its first left or last right.
    """
    ptr = indptr[:-1]
    cands: list[list[int] | None] = [None] * len(ylevel)
    for x0 in active:
        xs = [x0]  # lefts on the current path
        es = []    # es[i]: edge from xs[i] to the next right on the path
        while deficit[x0]:
            x = xs[-1]
            lx = level[x]
            e, end = ptr[x], indptr[x + 1]
            nxt = -1  # next left on the path; -2 when a right with slack is reached
            while e < end:
                y = indices[e]
                if ylevel[y] == lx:
                    if slack[y]:
                        nxt = -2
                        break
                    down = cands[y]
                    if down is None:
                        down = cands[y] = [x2 for x2 in carried[y] if level[x2] == lx + 1]
                    car = carried[y]
                    while down and (level[down[-1]] != lx + 1 or down[-1] not in car):
                        down.pop()
                    if down:
                        nxt = down[-1]
                        break
                    ylevel[y] = -1
                e += 1
            ptr[x] = e
            if nxt == -1:
                level[x] = -1
                xs.pop()
                if not xs:
                    break
                es.pop()
                continue
            es.append(e)
            if nxt >= 0:
                xs.append(nxt)
                continue
            y_end = indices[e]
            b = min(deficit[x0], slack[y_end])
            for i in range(len(xs) - 1):
                f = flow[carried[indices[es[i]]][xs[i + 1]]]
                if f < b:
                    b = f
            for i, e in enumerate(es):
                y = indices[e]
                if not flow[e]:
                    carried[y][xs[i]] = e
                flow[e] += b
                if i + 1 < len(xs):
                    back = carried[y][xs[i + 1]]
                    flow[back] -= b
                    if not flow[back]:
                        del carried[y][xs[i + 1]]
            deficit[x0] -= b
            slack[y_end] -= b
            del xs[1:]
            es.clear()

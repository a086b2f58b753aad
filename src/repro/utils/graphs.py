"""Graph algorithms shared by the DFS, SDFS and performance packages.

Plain standard-library implementations of the four algorithms the library
needs: simple cycle enumeration (Johnson 1975) for performance analysis and
structural validation, strongly connected components (Tarjan 1972),
reachability (breadth-first search) and topological sorting (Kahn 1962).
All of them are iterative, so deep graphs cannot overflow the call stack.

Every function takes an iterable of ``(src, dst)`` edges and an optional
iterable of *nodes* (to include isolated nodes).  Nodes are ranked by first
appearance in *nodes*, then in *edges*, and every traversal visits start
nodes and successors in that rank order.  Results therefore depend only on
the order of *nodes* and the edge set, not on the iteration order of a
``set`` of edges (nor, through it, on ``PYTHONHASHSEED``).  Parallel edges
count once.
"""

import heapq
from collections import deque
from itertools import islice


def _adjacency(edges, nodes=None):
    """``{node: [successors in rank order]}``, keyed in rank order."""
    succ = {}
    if nodes is not None:
        for node in nodes:
            succ.setdefault(node, {})
    for source, target in edges:
        succ.setdefault(source, {})[target] = None
        succ.setdefault(target, {})
    rank = {node: index for index, node in enumerate(succ)}
    return {node: sorted(targets, key=rank.__getitem__) for node, targets in succ.items()}


def _tarjan(succ, nodes=None):
    """Strongly connected components of *succ* restricted to *nodes*.

    Iterative Tarjan over *nodes* (default: all) in the given order:
    components come out in reverse topological order of the condensation
    (sinks first), each as a list in discovery order.
    """
    members = succ if nodes is None else set(nodes)
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    components = []
    for root in succ if nodes is None else nodes:
        if root in index:
            continue
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, successors = work[-1]
            for target in successors:
                if target not in members:
                    continue
                if target not in index:
                    index[target] = lowlink[target] = len(index)
                    stack.append(target)
                    on_stack.add(target)
                    work.append((target, iter(succ[target])))
                    break
                if target in on_stack:
                    lowlink[node] = min(lowlink[node], index[target])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component[::-1])
    return components


def _cycles_through(succ, start, members):
    """Johnson's circuit search: every simple cycle through *start* in *members*."""
    path = [start]
    blocked = {start}
    blocked_by = {}
    stack = [iter(succ[start])]
    closed = [False]
    while stack:
        for target in stack[-1]:
            if target not in members:
                continue
            if target == start:
                if len(path) > 1:  # self-loops are reported separately
                    yield list(path)
                    closed[-1] = True
            elif target not in blocked:
                path.append(target)
                closed.append(False)
                stack.append(iter(succ[target]))
                blocked.add(target)
                break
        else:
            stack.pop()
            node = path.pop()
            if closed.pop():
                if closed:
                    closed[-1] = True
                unblock = [node]
                while unblock:
                    member = unblock.pop()
                    if member in blocked:
                        blocked.discard(member)
                        unblock.extend(blocked_by.pop(member, ()))
            else:
                for target in succ[node]:
                    if target in members:
                        blocked_by.setdefault(target, set()).add(node)


def _simple_cycles(succ):
    """Self-loops first, then Johnson's search from each component's lowest node.

    Rather than recomputing the components of the whole remaining graph
    per start node, a component is searched from its lowest-ranked node,
    which is then removed and the rest of the component split again.
    """
    order = list(succ)
    rank = {node: index for index, node in enumerate(order)}
    for node, targets in succ.items():
        if node in targets:
            yield [node]
    heap = []

    def push(components):
        for component in components:
            if len(component) > 1:
                heapq.heappush(heap, (min(map(rank.__getitem__, component)), component))

    push(_tarjan(succ))
    while heap:
        lowest, component = heapq.heappop(heap)
        start = order[lowest]
        yield from _cycles_through(succ, start, set(component))
        push(_tarjan(succ, [node for node in component if node != start]))


def enumerate_simple_cycles(edges, nodes=None, limit=None):
    """Enumerate simple (elementary) cycles of a directed graph.

    Parameters
    ----------
    edges:
        Iterable of ``(src, dst)`` pairs.
    nodes:
        Optional iterable of nodes (to include isolated nodes).
    limit:
        Optional maximum number of cycles to return; ``None`` means all.

    Returns
    -------
    list of lists -- each inner list is the sequence of nodes along one cycle.
    Self-loops come first; then, grouped by their lowest-ranked node in rank
    order, every other cycle, starting at that node.
    """
    return list(islice(_simple_cycles(_adjacency(edges, nodes)), limit))


def strongly_connected_components(edges, nodes=None):
    """Return the list of SCCs (each a ``set`` of nodes) of a directed graph."""
    return [set(component) for component in _tarjan(_adjacency(edges, nodes))]


def reachable_from(edges, sources, nodes=None):
    """Return the set of nodes reachable from any node in *sources*."""
    succ = _adjacency(edges, nodes)
    reached = {source for source in sources if source in succ}
    queue = deque(reached)
    while queue:
        for target in succ[queue.popleft()]:
            if target not in reached:
                reached.add(target)
                queue.append(target)
    return reached


def topological_order(edges, nodes=None):
    """Return a topological ordering, or ``None`` if the graph has a cycle."""
    succ = _adjacency(edges, nodes)
    indegree = dict.fromkeys(succ, 0)
    for targets in succ.values():
        for target in targets:
            indegree[target] += 1
    queue = deque(node for node, degree in indegree.items() if degree == 0)
    order = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for target in succ[node]:
            indegree[target] -= 1
            if indegree[target] == 0:
                queue.append(target)
    return order if len(order) == len(succ) else None

"""The :class:`DataflowStructure` model.

Formally (Section II of the paper) a DFS is a triple ``<V, E, M0>`` where
``V = L ∪ R`` is a set of logic and register nodes, ``E ⊆ V × V`` is the
interconnect and ``M0`` is the initial marking of registers.

Besides the plain preset/postset of a node, the semantics uses the
*R-preset* ``?x`` and *R-postset* ``x?``: the registers reachable from /
reaching ``x`` through a non-empty path whose intermediate nodes are all
logic nodes.  These are computed here and cached (the cache is invalidated
whenever the structure changes).
"""

from repro.exceptions import ModelError
from repro.dfs.nodes import LogicNode, Node, NodeType, RegisterNode
from repro.utils.naming import NameRegistry


class DataflowStructure:
    """A dataflow structure: nodes, interconnect and initial marking."""

    def __init__(self, name="dfs"):
        self.name = name
        self._names = NameRegistry()
        self._nodes = {}
        self._edges = set()
        self._preset = {}
        self._postset = {}
        self._r_preset_cache = {}
        self._r_postset_cache = {}

    # -- construction -------------------------------------------------------

    def _register_node(self, node):
        self._names.register(node.name)
        self._nodes[node.name] = node
        self._preset[node.name] = set()
        self._postset[node.name] = set()
        self._invalidate()
        return node

    def add_node(self, node):
        """Add an already-constructed :class:`Node` to the model."""
        if not isinstance(node, Node):
            raise ModelError("expected a DFS node, got {!r}".format(node))
        return self._register_node(node)

    def add_logic(self, name, delay=None, function=None, annotation=None):
        """Add a logic (combinational) node."""
        return self._register_node(
            LogicNode(name, delay=delay, function=function, annotation=annotation)
        )

    def add_register(self, name, marked=False, delay=None, annotation=None):
        """Add a plain (static) register node."""
        return self._register_node(
            RegisterNode(name, NodeType.REGISTER, marked=marked, delay=delay,
                         annotation=annotation)
        )

    def add_control(self, name, marked=False, value=True, delay=None, annotation=None):
        """Add a control register node (carries True/False tokens)."""
        return self._register_node(
            RegisterNode(name, NodeType.CONTROL, marked=marked, initial_value=value,
                         delay=delay, annotation=annotation)
        )

    def add_push(self, name, marked=False, value=True, delay=None, annotation=None):
        """Add a push register node."""
        return self._register_node(
            RegisterNode(name, NodeType.PUSH, marked=marked, initial_value=value,
                         delay=delay, annotation=annotation)
        )

    def add_pop(self, name, marked=False, value=True, delay=None, annotation=None):
        """Add a pop register node."""
        return self._register_node(
            RegisterNode(name, NodeType.POP, marked=marked, initial_value=value,
                         delay=delay, annotation=annotation)
        )

    def connect(self, source, target):
        """Add a directed edge from *source* to *target* (by node name)."""
        source = source.name if isinstance(source, Node) else source
        target = target.name if isinstance(target, Node) else target
        for name in (source, target):
            if name not in self._nodes:
                raise ModelError("unknown node: {!r}".format(name))
        if source == target:
            raise ModelError("self-loop on node {!r} is not allowed".format(source))
        edge = (source, target)
        if edge in self._edges:
            return edge
        self._edges.add(edge)
        self._postset[source].add(target)
        self._preset[target].add(source)
        self._invalidate()
        return edge

    def connect_chain(self, *names):
        """Connect a sequence of nodes into a chain: ``a -> b -> c -> ...``."""
        for source, target in zip(names, names[1:]):
            self.connect(source, target)

    def remove_edge(self, source, target):
        """Remove the edge ``source -> target`` if present."""
        edge = (source, target)
        if edge not in self._edges:
            raise ModelError("no such edge: {!r} -> {!r}".format(source, target))
        self._edges.discard(edge)
        self._postset[source].discard(target)
        self._preset[target].discard(source)
        self._invalidate()

    def _invalidate(self):
        self._r_preset_cache = {}
        self._r_postset_cache = {}

    # -- element access -----------------------------------------------------

    @property
    def nodes(self):
        """Mapping of node name to node object."""
        return dict(self._nodes)

    @property
    def edges(self):
        """The set of edges as ``(source, target)`` name pairs."""
        return set(self._edges)

    def node(self, name):
        try:
            return self._nodes[name]
        except KeyError:
            raise ModelError("unknown node: {!r}".format(name))

    def node_names(self, node_type=None):
        """Names of all nodes, optionally filtered by :class:`NodeType`."""
        if node_type is None:
            return sorted(self._nodes)
        return sorted(
            name for name, node in self._nodes.items() if node.node_type is node_type
        )

    @property
    def logic_nodes(self):
        return self.node_names(NodeType.LOGIC)

    @property
    def register_nodes(self):
        """Names of all register-like nodes (plain, control, push, pop)."""
        return sorted(
            name for name, node in self._nodes.items() if node.is_register
        )

    @property
    def plain_registers(self):
        return self.node_names(NodeType.REGISTER)

    @property
    def control_registers(self):
        return self.node_names(NodeType.CONTROL)

    @property
    def push_registers(self):
        return self.node_names(NodeType.PUSH)

    @property
    def pop_registers(self):
        return self.node_names(NodeType.POP)

    def is_logic(self, name):
        return self.node(name).node_type is NodeType.LOGIC

    def is_register(self, name):
        return self.node(name).is_register

    def kind(self, name):
        return self.node(name).node_type

    # -- neighbourhoods -------------------------------------------------------

    def preset(self, name):
        """Direct predecessors ``•x``."""
        if name not in self._nodes:
            raise ModelError("unknown node: {!r}".format(name))
        return set(self._preset[name])

    def postset(self, name):
        """Direct successors ``x•``."""
        if name not in self._nodes:
            raise ModelError("unknown node: {!r}".format(name))
        return set(self._postset[name])

    def logic_preset(self, name):
        """Logic nodes in the direct preset."""
        return {n for n in self.preset(name) if self.is_logic(n)}

    def r_preset(self, name):
        """R-preset ``?x``: registers reaching *x* through logic-only paths."""
        if name in self._r_preset_cache:
            return set(self._r_preset_cache[name])
        result = set()
        visited = set()
        stack = list(self._preset[name])
        while stack:
            current = stack.pop()
            if current in visited:
                continue
            visited.add(current)
            node = self._nodes[current]
            if node.is_register:
                result.add(current)
            else:
                stack.extend(self._preset[current])
        self._r_preset_cache[name] = set(result)
        return result

    def r_postset(self, name):
        """R-postset ``x?``: registers reachable from *x* through logic-only paths."""
        if name in self._r_postset_cache:
            return set(self._r_postset_cache[name])
        result = set()
        visited = set()
        stack = list(self._postset[name])
        while stack:
            current = stack.pop()
            if current in visited:
                continue
            visited.add(current)
            node = self._nodes[current]
            if node.is_register:
                result.add(current)
            else:
                stack.extend(self._postset[current])
        self._r_postset_cache[name] = set(result)
        return result

    def controls_of(self, name):
        """Control registers in the R-preset of *name* (the node's "guards")."""
        return {n for n in self.r_preset(name) if self.kind(n) is NodeType.CONTROL}

    def controlled_by(self, control_name):
        """Push/pop/control nodes that have *control_name* in their R-preset."""
        controlled = set()
        for name, node in self._nodes.items():
            if node.is_dynamic and control_name in self.r_preset(name):
                controlled.add(name)
        return controlled

    # -- markings -------------------------------------------------------------

    def initial_marking(self):
        """Return ``{register name: bool}`` for all register nodes."""
        return {
            name: node.marked
            for name, node in self._nodes.items()
            if node.is_register
        }

    def set_initial_marking(self, marking, values=None):
        """Set which registers are initially marked (and dynamic values).

        Parameters
        ----------
        marking:
            Either an iterable of register names to mark (all others are
            unmarked) or a ``{name: bool}`` mapping.
        values:
            Optional ``{name: bool}`` mapping giving the True/False value of
            initially marked dynamic registers.
        """
        if isinstance(marking, dict):
            flags = {name: bool(flag) for name, flag in marking.items()}
        else:
            wanted = set(marking)
            registers = set(self.register_nodes)
            unknown = wanted - registers
            if unknown:
                raise ModelError(
                    "cannot mark non-register node(s): {}".format(", ".join(sorted(unknown))))
            flags = {name: (name in wanted) for name in registers}
        values = values or {}
        for name, flag in flags.items():
            node = self.node(name)
            if not node.is_register:
                raise ModelError("cannot mark logic node {!r}".format(name))
            node.marked = flag
            if node.is_dynamic:
                if flag:
                    node.initial_value = bool(values.get(name, node.initial_value
                                                         if node.initial_value is not None
                                                         else True))
                else:
                    node.initial_value = None

    # -- misc ------------------------------------------------------------------

    def input_registers(self):
        """Registers with an empty preset (fed by the environment)."""
        return sorted(
            name for name in self.register_nodes if not self._preset[name]
        )

    def output_registers(self):
        """Registers with an empty postset (read by the environment)."""
        return sorted(
            name for name in self.register_nodes if not self._postset[name]
        )

    def copy(self, name=None):
        """Return a deep copy of the structure (nodes are re-created)."""
        clone = DataflowStructure(name or self.name)
        for node_name in sorted(self._nodes):
            node = self._nodes[node_name]
            if isinstance(node, LogicNode):
                clone.add_logic(node.name, delay=node.delay, function=node.function,
                                annotation=dict(node.annotation))
            else:
                clone.add_node(RegisterNode(
                    node.name, node.node_type, marked=node.marked,
                    initial_value=node.initial_value, delay=node.delay,
                    annotation=dict(node.annotation),
                ))
        for source, target in sorted(self._edges):
            clone.connect(source, target)
        return clone

    def stats(self):
        """Return a summary dictionary (node counts by type, edge count)."""
        counts = {node_type.value: 0 for node_type in NodeType}
        for node in self._nodes.values():
            counts[node.node_type.value] += 1
        counts["edges"] = len(self._edges)
        counts["nodes"] = len(self._nodes)
        return counts

    def __repr__(self):
        return "DataflowStructure({!r}, nodes={}, edges={})".format(
            self.name, len(self._nodes), len(self._edges)
        )

"""DFS-specific property constructors.

These build Reach expressions (over the places of the translated Petri net)
for the properties the paper highlights:

* **control-token mismatch** -- a node guarded by several control registers
  observes both a True and a False token at the same time; the node is then
  disabled, which may lead to a deadlock (Section II-B);
* **token-value exclusion** -- a dynamic register holds a True and a False
  token at once (the ``Mt``/``Mf`` places of the register both marked);
* **variable consistency** -- every state variable of the translation must
  have exactly one of its complementary places marked (a sanity check on the
  translation itself).

The verifier checks each expression as a Reach query, so every one runs
through the reachability graph's single ``scan`` path.
"""

from repro.dfs.semantics import place_name
from repro.reach.ast import And, Marked, disjunction


def control_mismatch_expression(dfs, node_name=None):
    """Reach expression for a control-token mismatch.

    When *node_name* is given the expression covers that node only; otherwise
    it is the disjunction over every node guarded by two or more control
    registers.  Returns ``None`` when no node can possibly mismatch.
    """
    if node_name is not None:
        candidates = [node_name]
    else:
        candidates = [
            name for name in sorted(dfs.nodes)
            if dfs.node(name).is_register and len(dfs.controls_of(name)) >= 2
        ]
    terms = []
    for name in candidates:
        controls = sorted(dfs.controls_of(name))
        if len(controls) < 2:
            continue
        true_seen = disjunction([Marked(place_name("Mt", c, 1)) for c in controls])
        false_seen = disjunction([Marked(place_name("Mf", c, 1)) for c in controls])
        terms.append(And(true_seen, false_seen))
    if not terms:
        return None
    return disjunction(terms)


def value_exclusion_expression(dfs, node_name=None):
    """Reach expression for a token-value exclusion violation.

    A dynamic register must never hold a True and a False token at once;
    the bad states are those where both ``Mt`` and ``Mf`` of some dynamic
    register are marked.  When *node_name* is given the expression covers
    that register only; otherwise it is the disjunction over every dynamic
    register.  Returns ``None`` when the model has no dynamic register.
    """
    if node_name is not None:
        candidates = [node_name]
    else:
        candidates = [name for name in sorted(dfs.nodes)
                      if dfs.node(name).is_register and dfs.node(name).is_dynamic]
    terms = [
        And(Marked(place_name("Mt", name, 1)), Marked(place_name("Mf", name, 1)))
        for name in candidates
    ]
    if not terms:
        return None
    return disjunction(terms)


def variable_consistency_pairs(dfs):
    """Return the list of complementary place pairs of the translation.

    Every pair ``(x_0, x_1)`` must satisfy "exactly one marked" in all
    reachable states.
    """
    pairs = []
    for name in sorted(dfs.nodes):
        node = dfs.node(name)
        if node.node_type.value == "logic":
            kinds = ("C",)
        elif node.is_dynamic:
            kinds = ("M", "Mt", "Mf")
        else:
            kinds = ("M",)
        for kind in kinds:
            pairs.append((place_name(kind, name, 0), place_name(kind, name, 1)))
    return pairs


def consistency_violation_expression(dfs):
    """Reach expression: some complementary pair is both-marked or both-empty."""
    terms = []
    for zero, one in variable_consistency_pairs(dfs):
        both = And(Marked(zero), Marked(one))
        neither = And(~Marked(zero), ~Marked(one))
        terms.append(both | neither)
    return disjunction(terms)


"""Instance files: a sectioned text format for trees, processes and markets.

One document describes everything a check needs.  Lines are ``#``-commented,
numbers are strict rational literals (``1/2``, ``3``; decimals rejected),
and sections start with a bracketed header:

    version 1

    [tree]                  # node NAME PARENT PROB   ('-' twice for the root)
    node root - -
    node u root 1/2
    node d root 1/2

    [process X]             # one NODE VALUE line per node
    root 1
    u 2
    d 0

    [generators]            # names of processes forming the generated set
    X

    [partition]             # blocks of terminal nodes
    block u d

    [rv f]                  # terminal-node random variable
    u 1
    d 0

    [rvset]                 # names of rvs generating the conditional set
    f

    [market]                # ordered asset names; prices are [process ...]
    assets X

    [claim]                 # terminal payoff
    u 3
    d 0

    [consumption]           # density per node plus time weights
    node root 0
    node u 3
    node d 0
    mu 0 0
    mu 1 1

Within a section each node, each ``mu`` time (an integer from 0 to the
horizon) and the ``assets`` line appear at most once.  Processes not listed under
[generators] and rvs not listed under [rvset] serve as probes.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import ProcpolarError, RationalFormatError
from .market import ConsumptionDensity, Market
from .processes import AdaptedProcess, ProcessSet
from .rational import parse_rational
from .rv_polar import RvSet
from .tree import EventTree, Partition, RandomVariable, terminal_space, validate_tree

_SECTION_RE = re.compile(r"^\[([a-z]+)(?:\s+(\S+))?\]$")


class InstanceError(ProcpolarError, ValueError):
    """The instance file is malformed or internally inconsistent."""


@dataclass
class Instance:
    """A parsed instance file."""

    version: int
    tree: EventTree
    tree_valid: bool
    processes: dict[str, AdaptedProcess] = field(default_factory=dict)
    generators: tuple[str, ...] = ()
    partition: Optional[Partition] = None
    rvs: dict[str, RandomVariable] = field(default_factory=dict)
    rvset: tuple[str, ...] = ()
    market_assets: tuple[str, ...] = ()
    claim: Optional[RandomVariable] = None
    consumption: Optional[ConsumptionDensity] = None
    digest: str = ""

    def process_set(self) -> ProcessSet:
        if not self.generators:
            raise InstanceError("no [generators] section")
        return ProcessSet.of(*(self.processes[name] for name in self.generators))

    def probe_processes(self) -> dict[str, AdaptedProcess]:
        skip = set(self.generators) | set(self.market_assets)
        return {k: v for k, v in self.processes.items() if k not in skip}

    def rv_set(self) -> RvSet:
        if not self.rvset:
            raise InstanceError("no [rvset] section")
        if self.partition is None:
            raise InstanceError("an rv set needs a [partition] section")
        return RvSet(tuple(self.rvs[name] for name in self.rvset), self.partition)

    def probe_rvs(self) -> dict[str, RandomVariable]:
        return {k: v for k, v in self.rvs.items() if k not in set(self.rvset)}

    def market(self) -> Market:
        if not self.market_assets:
            raise InstanceError("no [market] section")
        return Market(
            self.tree, tuple(self.processes[name] for name in self.market_assets)
        )


def _clean_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def _rat(token: str, lineno: int) -> Fraction:
    try:
        return parse_rational(token)
    except RationalFormatError as exc:
        raise InstanceError(f"line {lineno}: {exc}") from exc


def parse_instance(text: str) -> Instance:
    lines = _clean_lines(text)
    if not lines or not lines[0][1].startswith("version"):
        raise InstanceError("the first line must declare a version")
    vtok = lines[0][1].split()
    if len(vtok) != 2 or vtok[1] != "1":
        raise InstanceError(f"unsupported version line: {lines[0][1]!r}")

    sections: list[tuple[str, Optional[str], list[tuple[int, str]]]] = []
    current: Optional[list[tuple[int, str]]] = None
    seen_headers: set[tuple[str, Optional[str]]] = set()
    for lineno, line in lines[1:]:
        msec = _SECTION_RE.match(line)
        if msec:
            header = (msec.group(1), msec.group(2))
            if header in seen_headers:
                name = header[0] + (f" {header[1]}" if header[1] else "")
                raise InstanceError(f"line {lineno}: duplicate section [{name}]")
            seen_headers.add(header)
            current = []
            sections.append((header[0], header[1], current))
        elif current is None:
            raise InstanceError(f"line {lineno}: content before any section")
        else:
            current.append((lineno, line))

    # -- tree first
    tree_secs = [s for s in sections if s[0] == "tree"]
    if len(tree_secs) != 1:
        raise InstanceError("exactly one [tree] section required")
    names: list[str] = []
    parents: list[Optional[int]] = []
    probs: list[Optional[Fraction]] = []
    for lineno, line in tree_secs[0][2]:
        tok = line.split()
        if len(tok) != 4 or tok[0] != "node":
            raise InstanceError(f"line {lineno}: expected 'node NAME PARENT PROB'")
        _, name, parent, prob = tok
        if name in names:
            raise InstanceError(f"line {lineno}: duplicate node {name!r}")
        if parent == "-":
            parents.append(None)
            probs.append(None)
        else:
            if parent not in names:
                raise InstanceError(
                    f"line {lineno}: parent {parent!r} not defined above"
                )
            parents.append(names.index(parent))
            probs.append(_rat(prob, lineno))
        names.append(name)
    try:
        tree = EventTree.build(parents, probs, names)
    except ProcpolarError as exc:
        raise InstanceError(f"[tree]: {exc}") from exc
    node_of = tree.label_index()

    inst = Instance(
        version=1,
        tree=tree,
        tree_valid=not validate_tree(tree),
        digest=hashlib.sha256(text.encode()).hexdigest(),
    )

    def set_once(vals: dict, key, token: str, lineno: int, what: str) -> None:
        """``vals[key]`` from the rational ``token``; a second line for the
        same key is an error, not an overwrite."""
        if key in vals:
            raise InstanceError(f"line {lineno}: duplicate {what}")
        vals[key] = _rat(token, lineno)

    def node_values(body, what: str) -> dict[int, Fraction]:
        vals: dict[int, Fraction] = {}
        for lineno, line in body:
            tok = line.split()
            if len(tok) != 2:
                raise InstanceError(f"line {lineno}: expected 'NODE VALUE' in {what}")
            if tok[0] not in node_of:
                raise InstanceError(f"line {lineno}: unknown node {tok[0]!r}")
            key = node_of[tok[0]]
            set_once(vals, key, tok[1], lineno, f"node {tok[0]!r} in {what}")
        return vals

    def need_valid_tree(what: str) -> None:
        if not inst.tree_valid:
            raise InstanceError(
                f"{what} requires a valid tree (probabilities must be positive "
                "and sum to 1)"
            )

    times = {str(t): t for t in range(tree.horizon + 1)}
    mu_items: dict[int, Fraction] = {}
    cons_values: dict[int, Fraction] = {}
    for kind, arg, body in sections:
        if kind == "tree":
            continue
        if kind == "process":
            if not arg:
                raise InstanceError("a [process] section needs a name")
            vals = node_values(body, f"[process {arg}]")
            missing = [tree.labels[i] for i in range(tree.num_nodes) if i not in vals]
            if missing:
                raise InstanceError(f"[process {arg}]: missing nodes {missing}")
            inst.processes[arg] = AdaptedProcess(
                tree, tuple(vals[i] for i in range(tree.num_nodes))
            )
        elif kind == "generators":
            inst.generators = tuple(
                name for _, line in body for name in line.split()
            )
        elif kind == "partition":
            need_valid_tree("[partition]")
            space = terminal_space(tree)
            blocks = []
            for lineno, line in body:
                tok = line.split()
                if tok[0] != "block" or len(tok) < 2:
                    raise InstanceError(f"line {lineno}: expected 'block NODE...'")
                for t in tok[1:]:
                    if t not in node_of:
                        raise InstanceError(f"line {lineno}: unknown node {t!r}")
                blocks.append([node_of[t] for t in tok[1:]])
            try:
                inst.partition = Partition.from_blocks(space, blocks)
            except ProcpolarError as exc:
                raise InstanceError(f"[partition]: {exc}") from exc
        elif kind == "rv":
            if not arg:
                raise InstanceError("an [rv] section needs a name")
            need_valid_tree(f"[rv {arg}]")
            space = terminal_space(tree)
            vals = node_values(body, f"[rv {arg}]")
            try:
                inst.rvs[arg] = RandomVariable.from_mapping(space, vals)
            except ProcpolarError as exc:
                raise InstanceError(f"[rv {arg}]: {exc}") from exc
        elif kind == "rvset":
            inst.rvset = tuple(name for _, line in body for name in line.split())
        elif kind == "market":
            for lineno, line in body:
                tok = line.split()
                if tok[0] != "assets" or len(tok) < 2:
                    raise InstanceError(f"line {lineno}: expected 'assets NAME...'")
                if inst.market_assets:
                    raise InstanceError(f"line {lineno}: duplicate assets line")
                inst.market_assets = tuple(tok[1:])
        elif kind == "claim":
            need_valid_tree("[claim]")
            space = terminal_space(tree)
            vals = node_values(body, "[claim]")
            try:
                inst.claim = RandomVariable.from_mapping(space, vals)
            except ProcpolarError as exc:
                raise InstanceError(f"[claim]: {exc}") from exc
        elif kind == "consumption":
            for lineno, line in body:
                tok = line.split()
                if tok[0] == "node" and len(tok) == 3:
                    if tok[1] not in node_of:
                        raise InstanceError(f"line {lineno}: unknown node {tok[1]!r}")
                    what = f"node {tok[1]!r} in [consumption]"
                    set_once(cons_values, node_of[tok[1]], tok[2], lineno, what)
                elif tok[0] == "mu" and len(tok) == 3:
                    if tok[1] not in times:
                        raise InstanceError(
                            f"line {lineno}: mu time {tok[1]!r} is not an integer "
                            f"in 0..{tree.horizon}"
                        )
                    what = f"mu time {tok[1]}"
                    set_once(mu_items, times[tok[1]], tok[2], lineno, what)
                else:
                    raise InstanceError(
                        f"line {lineno}: expected 'node NAME VALUE' or 'mu T VALUE'"
                    )
        else:
            raise InstanceError(f"unknown section [{kind}]")

    if mu_items or cons_values:
        missing = [str(t) for t in range(tree.horizon + 1) if t not in mu_items]
        if missing:
            raise InstanceError(f"[consumption]: missing mu weights for times {missing}")
        miss_nodes = [
            tree.labels[i] for i in range(tree.num_nodes) if i not in cons_values
        ]
        if miss_nodes:
            raise InstanceError(f"[consumption]: missing nodes {miss_nodes}")
        try:
            inst.consumption = ConsumptionDensity(
                AdaptedProcess(
                    tree, tuple(cons_values[i] for i in range(tree.num_nodes))
                ),
                tuple(mu_items[t] for t in range(tree.horizon + 1)),
            )
        except ProcpolarError as exc:
            raise InstanceError(f"[consumption]: {exc}") from exc

    for name in inst.generators:
        if name not in inst.processes:
            raise InstanceError(f"[generators]: unknown process {name!r}")
    for name in inst.rvset:
        if name not in inst.rvs:
            raise InstanceError(f"[rvset]: unknown rv {name!r}")
    for name in inst.market_assets:
        if name not in inst.processes:
            raise InstanceError(f"[market]: unknown process {name!r}")
    return inst


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InstanceError(f"{path}: not UTF-8 text ({exc})") from exc
    return parse_instance(text)

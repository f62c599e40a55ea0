"""Synthetic HIV anti-viral screen dataset with the schemas of Table 3.

The real dataset (NCI AIDS antiviral screen) describes ~42K chemical
compounds as atoms, elements, atom properties, and typed bonds; the target is
``hivActive(comp)``.  This module generates synthetic molecules with the same
relational structure and constraints (the INDs of Table 4) and labels
activity with a hidden structural rule (an electron-donor atom bonded to an
oxygen atom through a high-order bond), so that a correct definition exists
and requires joining through the bond relations — the structural property
that makes the 4NF-2 schema hard for top-down learners in the paper.

Schema variants (derived from the *Initial* schema):

* ``initial`` — bonds(bd,atm1,atm2) plus one relation per bond-type slot;
* ``4nf1``    — bonds ⋈ btype1 ⋈ btype2 ⋈ btype3 composed into a single
                six-attribute bonds relation;
* ``4nf2``    — bonds decomposed into bondSource(bd,atm1) / bondTarget(bd,atm2).

Scale: the paper's HIV-Large has 14M tuples; the generator defaults to a
laptop-scale molecule count and exposes the count as a knob.  The harness
uses two presets, ``hiv_small`` (the HIV-2K4K stand-in) and ``hiv_large`` (a
larger sweep), documented in EXPERIMENTS.md.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..database.constraints import FunctionalDependency, InclusionDependency
from ..database.instance import DatabaseInstance
from ..database.schema import RelationSchema, Schema
from ..learning.examples import ExampleSet
from ..transform.decomposition import ComposeOperation, DecomposeOperation
from ..transform.transformation import SchemaTransformation
from .base import DatasetBundle, SchemaVariant, base_variant

TARGET = "hivActive"

ELEMENTS = ("c", "n", "o", "s", "cl")
BOND_TYPES_1 = ("t1a", "t1b")
BOND_TYPES_2 = ("t2a", "t2b", "t2c")
BOND_TYPES_3 = ("t3a", "t3b")
PROPERTY_RELATIONS = ("p2_0", "p2_1", "p3")


class HivConfig:
    """Size and labeling knobs of the synthetic molecule generator."""

    def __init__(
        self,
        num_compounds: int = 120,
        min_atoms: int = 4,
        max_atoms: int = 8,
        active_fraction: float = 0.35,
        property_probability: float = 0.4,
        negative_ratio: float = 2.0,
    ):
        self.num_compounds = int(num_compounds)
        self.min_atoms = int(min_atoms)
        self.max_atoms = int(max_atoms)
        self.active_fraction = float(active_fraction)
        self.property_probability = float(property_probability)
        self.negative_ratio = float(negative_ratio)


def initial_schema() -> Schema:
    """The Initial HIV schema (Table 3) with the INDs of Table 4."""
    relations = [
        RelationSchema("compound", ["comp", "atm"]),
        RelationSchema("bonds", ["bd", "atm1", "atm2"]),
        RelationSchema("btype1", ["bd", "t1"]),
        RelationSchema("btype2", ["bd", "t2"]),
        RelationSchema("btype3", ["bd", "t3"]),
    ]
    relations.extend(
        RelationSchema(f"element_{element}", ["atm"]) for element in ELEMENTS
    )
    relations.extend(
        RelationSchema(name, ["atm"]) for name in PROPERTY_RELATIONS
    )
    fds = [
        FunctionalDependency("btype1", ["bd"], ["t1"]),
        FunctionalDependency("btype2", ["bd"], ["t2"]),
        FunctionalDependency("btype3", ["bd"], ["t3"]),
    ]
    inds = [
        InclusionDependency("bonds", ["bd"], "btype1", ["bd"], with_equality=True),
        InclusionDependency("bonds", ["bd"], "btype2", ["bd"], with_equality=True),
        InclusionDependency("bonds", ["bd"], "btype3", ["bd"], with_equality=True),
        InclusionDependency("bonds", ["atm1"], "compound", ["atm"]),
        InclusionDependency("bonds", ["atm2"], "compound", ["atm"]),
    ]
    inds.extend(
        InclusionDependency(f"element_{element}", ["atm"], "compound", ["atm"])
        for element in ELEMENTS
    )
    inds.extend(
        InclusionDependency(name, ["atm"], "compound", ["atm"])
        for name in PROPERTY_RELATIONS
    )
    return Schema(relations, fds, inds, name="hiv-initial")


def schema_variants(schema: Optional[Schema] = None) -> List[SchemaVariant]:
    """The three HIV schema variants of Table 9."""
    schema = schema or initial_schema()
    initial = base_variant(schema, "initial")

    to_4nf1 = SchemaTransformation(
        schema,
        [
            ComposeOperation(
                ["bonds", "btype1", "btype2", "btype3"],
                "bonds",
                attribute_order=["bd", "atm1", "atm2", "t1", "t2", "t3"],
            )
        ],
        target_name="hiv-4nf1",
    )

    to_4nf2 = SchemaTransformation(
        schema,
        [
            DecomposeOperation(
                "bonds",
                [("bondSource", ["bd", "atm1"]), ("bondTarget", ["bd", "atm2"])],
            )
        ],
        target_name="hiv-4nf2",
    )

    return [initial, SchemaVariant("4nf1", to_4nf1), SchemaVariant("4nf2", to_4nf2)]


def generate_instance(
    config: Optional[HivConfig] = None, seed: int = 0
) -> Tuple[DatabaseInstance, List[Tuple[str]]]:
    """Generate molecules plus the hidden hivActive ground truth.

    A compound is *active* when it contains a nitrogen atom carrying property
    ``p2_1`` that is bonded (either bond direction) to an oxygen atom.
    Active compounds are built to contain that substructure.  Inactive
    compounds may contain decoys — nitrogen atoms with ``p2_1`` and oxygen
    atoms in the same molecule — but never a bond between the two, so weaker
    rules that ignore the bond relation cover negatives and only the full
    join is a consistent definition.
    """
    config = config or HivConfig()
    rng = random.Random(seed)
    schema = initial_schema()
    instance = DatabaseInstance(schema)

    active_compounds: List[Tuple[str]] = []
    bond_counter = 0

    # One transaction for the whole population: one coalesced delta (and
    # one mutation-log record on logging backends) instead of a
    # change-notification per tuple.
    with instance.transaction():
        for compound_index in range(config.num_compounds):
            compound = f"comp{compound_index}"
            is_active = rng.random() < config.active_fraction
            num_atoms = rng.randint(config.min_atoms, config.max_atoms)
            atoms = [f"{compound}_a{i}" for i in range(num_atoms)]
            elements: Dict[str, str] = {}
            has_p2_1: Set[str] = set()

            for atom in atoms:
                elements[atom] = rng.choice(ELEMENTS)

            if is_active:
                # Plant the active substructure: p2_1 nitrogen bonded to oxygen.
                elements[atoms[0]] = "n"
                elements[atoms[1]] = "o"
                has_p2_1.add(atoms[0])
                active_compounds.append((compound,))
            elif rng.random() < 0.5 and num_atoms >= 3:
                # Plant a decoy: p2_1 nitrogen and an oxygen, never bonded together.
                elements[atoms[0]] = "n"
                elements[atoms[2]] = "o"
                has_p2_1.add(atoms[0])

            for atom in atoms:
                instance.add_tuple("compound", (compound, atom))
                instance.add_tuple(f"element_{elements[atom]}", (atom,))
                if atom in has_p2_1:
                    instance.add_tuple("p2_1", (atom,))
                for property_name in PROPERTY_RELATIONS:
                    if property_name == "p2_1":
                        continue
                    if rng.random() < config.property_probability:
                        instance.add_tuple(property_name, (atom,))

            # Build a connected chain of bonds plus a few random extra bonds.
            bond_pairs: List[Tuple[str, str]] = []
            for i in range(len(atoms) - 1):
                bond_pairs.append((atoms[i], atoms[i + 1]))
            extra_bonds = rng.randint(0, max(1, num_atoms // 2))
            for _ in range(extra_bonds):
                left, right = rng.sample(atoms, 2)
                bond_pairs.append((left, right))
            if is_active and (atoms[0], atoms[1]) not in bond_pairs:
                bond_pairs.append((atoms[0], atoms[1]))

            def forms_forbidden_pattern(left: str, right: str) -> bool:
                """A bond that would make an inactive compound satisfy the rule."""
                left_matches = elements[left] == "n" and left in has_p2_1 and elements[right] == "o"
                right_matches = elements[right] == "n" and right in has_p2_1 and elements[left] == "o"
                return left_matches or right_matches

            for left, right in bond_pairs:
                if not is_active and forms_forbidden_pattern(left, right):
                    continue
                bond = f"bd{bond_counter}"
                bond_counter += 1
                instance.add_tuple("bonds", (bond, left, right))
                instance.add_tuple("btype1", (bond, rng.choice(BOND_TYPES_1)))
                instance.add_tuple("btype2", (bond, rng.choice(BOND_TYPES_2)))
                instance.add_tuple("btype3", (bond, rng.choice(BOND_TYPES_3)))

    return instance, active_compounds


def generate_examples(
    active_compounds: Sequence[Tuple[str]],
    instance: DatabaseInstance,
    config: Optional[HivConfig] = None,
    seed: int = 0,
) -> ExampleSet:
    """Positive hivActive compounds plus all inactive compounds as negatives.

    Because the target is unary, negatives are simply the remaining compounds
    (capped at ``negative_ratio`` × positives to match the paper's ratio).
    """
    config = config or HivConfig()
    rng = random.Random(seed)
    all_compounds = sorted(instance.relation("compound").distinct_values("comp"), key=str)
    active_set = {values[0] for values in active_compounds}
    negatives = [(c,) for c in all_compounds if c not in active_set]
    rng.shuffle(negatives)
    cap = int(len(active_set) * config.negative_ratio) or len(negatives)
    negatives = negatives[:cap]
    return ExampleSet(TARGET, list(active_compounds), negatives)


def load(config: Optional[HivConfig] = None, seed: int = 0) -> DatasetBundle:
    """Generate the full HIV bundle (instance, examples, schema variants)."""
    config = config or HivConfig()
    instance, active_compounds = generate_instance(config, seed)
    examples = generate_examples(active_compounds, instance, config, seed)
    return DatasetBundle("hiv", instance, examples, schema_variants(), TARGET)


def load_small(seed: int = 0) -> DatasetBundle:
    """The HIV-2K4K stand-in: a smaller molecule set for fast experiments."""
    return load(HivConfig(num_compounds=60, min_atoms=3, max_atoms=6), seed=seed)


def load_large(seed: int = 0) -> DatasetBundle:
    """The HIV-Large stand-in: more compounds and larger molecules."""
    return load(HivConfig(num_compounds=240, min_atoms=5, max_atoms=10), seed=seed)

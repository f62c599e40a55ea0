"""End-to-end tests for Progol/Aleph, Golem, ProGolem, and Castor learners."""


from repro.castor.castor import CastorLearner, CastorParameters
from repro.castor.bottom_clause import CastorBottomClauseConfig
from repro.golem.golem import GolemLearner, GolemParameters
from repro.learning.bottom_clause import BottomClauseConfig
from repro.learning.evaluation import evaluate_definition
from repro.progol.progol import AlephFoilLearner, ProgolLearner, ProgolParameters
from repro.progolem.progolem import ProGolemLearner, ProGolemParameters


class TestProgolLearners:
    def test_aleph_progol_learns_consistent_definition(
        self, tiny_schema, tiny_instance, tiny_examples
    ):
        learner = ProgolLearner(
            tiny_schema, ProgolParameters(clause_length=4, open_list_size=3)
        )
        definition = learner.learn(tiny_instance, tiny_examples)
        assert len(definition) >= 1
        evaluation = evaluate_definition(definition, tiny_instance, tiny_examples)
        assert evaluation.precision >= 0.67
        assert evaluation.recall >= 0.5

    def test_aleph_foil_is_greedy_variant(self, tiny_schema, tiny_instance, tiny_examples):
        learner = AlephFoilLearner(tiny_schema, clause_length=4)
        assert learner.parameters.open_list_size == 1
        definition = learner.learn(tiny_instance, tiny_examples)
        # The greedy emulation may or may not find a clause on this tiny
        # problem (it is schema dependent and has no lookahead); what must
        # hold is that any returned clause respects the clauselength bound and
        # the acceptance thresholds.
        assert all(clause.length <= 4 for clause in definition)
        if len(definition):
            evaluation = evaluate_definition(definition, tiny_instance, tiny_examples)
            assert evaluation.precision >= 0.67

    def test_clause_length_restricts_hypotheses(self, tiny_schema, tiny_instance, tiny_examples):
        learner = ProgolLearner(tiny_schema, ProgolParameters(clause_length=1))
        definition = learner.learn(tiny_instance, tiny_examples)
        assert all(clause.length <= 1 for clause in definition)


class TestGolem:
    def test_golem_learns_via_rlgg(self, tiny_schema, tiny_instance, tiny_examples):
        learner = GolemLearner(
            tiny_schema,
            GolemParameters(sample_size=4, bottom_clause=BottomClauseConfig(max_depth=2)),
        )
        definition = learner.learn(tiny_instance, tiny_examples)
        assert len(definition) >= 1
        evaluation = evaluate_definition(definition, tiny_instance, tiny_examples)
        assert evaluation.precision >= 0.67


class TestProGolem:
    def test_progolem_learns_consistent_definition(
        self, tiny_schema, tiny_instance, tiny_examples
    ):
        learner = ProGolemLearner(
            tiny_schema,
            ProGolemParameters(
                sample_size=4, beam_width=2, bottom_clause=BottomClauseConfig(max_depth=2)
            ),
        )
        definition = learner.learn(tiny_instance, tiny_examples)
        assert len(definition) >= 1
        evaluation = evaluate_definition(definition, tiny_instance, tiny_examples)
        assert evaluation.precision >= 0.67
        assert evaluation.recall >= 0.5


class TestCastor:
    def make_learner(self, schema, **kwargs) -> CastorLearner:
        parameters = CastorParameters(
            sample_size=4,
            beam_width=2,
            bottom_clause=CastorBottomClauseConfig(max_depth=2, max_distinct_variables=15),
            **kwargs,
        )
        return CastorLearner(schema, parameters)

    def test_castor_learns_consistent_definition(
        self, tiny_schema, tiny_instance, tiny_examples
    ):
        learner = self.make_learner(tiny_schema)
        definition = learner.learn(tiny_instance, tiny_examples)
        assert len(definition) >= 1
        evaluation = evaluate_definition(definition, tiny_instance, tiny_examples)
        assert evaluation.precision >= 0.67
        assert evaluation.recall >= 0.5

    def test_castor_output_is_safe(self, tiny_schema, tiny_instance, tiny_examples):
        learner = self.make_learner(tiny_schema)
        definition = learner.learn(tiny_instance, tiny_examples)
        assert definition.is_safe()

    def test_castor_promote_inds_mode(self, tiny_schema, tiny_instance, tiny_examples):
        learner = self.make_learner(tiny_schema, promote_inds_from_data=True)
        definition = learner.learn(tiny_instance, tiny_examples)
        evaluation = evaluate_definition(definition, tiny_instance, tiny_examples)
        assert evaluation.recall > 0

"""The test mutants: each a named source patch of one contract handler
(``chain.mutant``), recompiled apart from the module it patches."""

import pytest

from dexsim import cpmm, fa12
from dexsim.address import contract, user
from dexsim.chain import Chain, ContractCallContext, mutant
from dexsim.payload import Tag, addr, nat, record

TABLES = {"cpmm": cpmm, "fa12": fa12}
NAMES = [(module, m) for module in TABLES for m in TABLES[module].MUTATIONS]


@pytest.mark.parametrize("module,mutation", NAMES, ids=[m for _, m in NAMES])
def test_every_patch_text_occurs_once_in_its_handler(module, mutation):
    mod = TABLES[module]
    entrypoint = mod.MUTATIONS[mutation][0]
    name, entrypoints = mutant(module, mod._ENTRYPOINTS, mod.MUTATIONS, mutation)
    assert name == f"{module}[{mutation}]" == mod.make_contract(mutation).name
    changed = [e for e in entrypoints if entrypoints[e] != mod._ENTRYPOINTS[e]]
    assert changed == [entrypoint]
    assert entrypoints[entrypoint][1:] == mod._ENTRYPOINTS[entrypoint][1:]


@pytest.mark.parametrize("text", ["no such text", "div_opt("], ids=["none", "twice"])
def test_a_patch_that_does_not_match_once_is_refused(text):
    mutations = {"bad": ("add_liquidity", text, "pass")}
    with pytest.raises(ValueError, match="bad: .* occurs [02] times in add_liquidity"):
        mutant("cpmm", cpmm._ENTRYPOINTS, mutations, "bad")


def test_building_a_mutant_leaves_the_module_untouched():
    alice, bob, carol = user(0), user(1), user(2)
    before = dict(vars(fa12))
    state = fa12.Fa12State(((alice, 100),), (((alice, bob), 40),), contract(2), 100)
    msg = Tag("transfer", record(**{"from": addr(alice), "to": addr(carol), "value": nat(30)}))
    ctx = ContractCallContext(bob, bob, contract(3), 0, 0)

    def allowance_after(ref):
        new, _ = ref.receive(Chain(1, 1, 0), ctx, state, msg)
        return fa12.allowance_of(new, alice, bob)

    assert allowance_after(fa12.make_contract("keep_allowance")) == 40
    assert fa12._ENTRYPOINTS["transfer"][0] is fa12.transfer
    assert vars(fa12).keys() == before.keys()
    assert all(vars(fa12)[k] is v for k, v in before.items())
    assert allowance_after(fa12.make_contract()) == 10

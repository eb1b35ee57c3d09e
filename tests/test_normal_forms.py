"""Golden normal forms: sha256 digests of the plain-printed Lagrangian, EL
system, ``extend_to_bv`` action and master residual of every builtin at each
dimension it supports.  A change to the kernel's coefficient arithmetic, the
term order or the printer that moves any normal form fails here.  The digests
were recorded with the ``Fraction``-coefficient kernel that preceded the
integer-numerator layout."""

import hashlib

import pytest

from jetvar import (
    builtin,
    check_master_equation,
    euler_lagrange_system,
    extend_to_bv,
    format_expression,
)

# (model, dim) -> digests of (lagrangian, EL system, extend_to_bv action, master residual)
GOLDEN = {
    ("free_particle", None): (
        "655b0e6fba53cdefd03ea25cf6d68ed8561702811b2ee2a8ed53debce9cba4db",
        "f1df05efe05776bb6ed08253edf25f2e76759e8accc53837b3adaf81c1dd963c",
        "655b0e6fba53cdefd03ea25cf6d68ed8561702811b2ee2a8ed53debce9cba4db",
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    ),
    ("scalar_phi4", 1): (
        "2ae6b99d8610929b83cb224726138c3acfc062a89a8eb283496be8a3b7e5d670",
        "8be97edae3f6791680e5eb914473cc0c86d73a931cbc55be9df8f34e4c17cbc5",
        "2ae6b99d8610929b83cb224726138c3acfc062a89a8eb283496be8a3b7e5d670",
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    ),
    ("scalar_phi4", 2): (
        "2e2bb787295c9ddb5bba57be2f36052ba8efaa1abf5a2880c51bbb42f4e5ca13",
        "daaf0d8b1aff89d669dea218723824b2c9243b5a6e4dcd45b0b196aa86836cf1",
        "2e2bb787295c9ddb5bba57be2f36052ba8efaa1abf5a2880c51bbb42f4e5ca13",
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    ),
    ("scalar_phi4", 3): (
        "01e044af4f4497e2901428b863a643aa04580c03aacbb03c9441c294290585e6",
        "0ec114ca18393d18851abfdc3e3925c588a568003941068132f50e3420fdfbc5",
        "01e044af4f4497e2901428b863a643aa04580c03aacbb03c9441c294290585e6",
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    ),
    ("scalar_phi4", 4): (
        "27026d50d85da10820dacfcd2983fcaff55690947a98a80018bf85cf9b4e5668",
        "6db43cfa88722281d1286609c2d316913073f84ce656e1541f9b5567dff0e405",
        "27026d50d85da10820dacfcd2983fcaff55690947a98a80018bf85cf9b4e5668",
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    ),
    ("maxwell", 2): (
        "779e7047e6a8d8f9b20194b45a7b0d30623902623265f83d6a88e3fdad6fcb32",
        "8774b40ae413e470f6566efb9c48f86a005d6f6a7564afeaf1a60d2f7606cb37",
        "fbb5304ab9e800f35c709aecc58391b41fe582a1749cd0f7f92fbbb2f76a8d14",
        "c0c06b5e534cef882fa7131852ecae42364f79bad1f67766bbc66dc9a716584f",
    ),
    ("maxwell", 3): (
        "a7e9b7a19535fbdc0357034200e8ee26c21e12c0c3c652dfca50118e59dadf86",
        "11f826431bd4f5584a5a23c398954a07851b7d1bf39f927cde6008d2a325ec2d",
        "eaa38bfc11a9e1d614d608d9af17810277158d5ddffa6aae1e722ced52083c0f",
        "2c9579e535beaa5dff8f4d2f6e0dfb02f4e827805fcbf654990b9b42ef6f96ad",
    ),
    ("maxwell", 4): (
        "149d5971877203b3d4f08dfb09e3a1fc604e2d4905e418bf1fc6141b6366dace",
        "cb66089674fc7cd06908bfec08c0e69d536fe355a606e55b76c1122beaf16b72",
        "fd3e795640899080c98eec89c6d158266d3003a28ab476c00ef0654d2391d845",
        "09c59632c2abb4c657090141f85fec5d0dadddb528c3f818112d3392a6361141",
    ),
    ("yang_mills_su2", 2): (
        "eb46912a0a9383e86ff84500007c9f94cf416507339030279ae4a6f576d0d481",
        "953dab3650a0de9e01f4633e334c8cbe24d7b8a5b652bea5fde20ec3f226e18a",
        "409e938546faa2e7729ce1ccb40d5accc42798b921a00399db17015c094121af",
        "c5822ab96619811183d439830abd3d43e0b08be2696c29b41a917785bf266ccb",
    ),
    ("yang_mills_su2", 3): (
        "9f091e6e243e96aa6d1df7731e8b6ef63823adecad85379d84cdf2e8db21c2ac",
        "bb8af3153503bcbe1c93a471ad88d50857eb9e093ef6cbfa585a0e65ada75ea4",
        "550633e9530412e8114830558f2e3840d8968ae3bd3160600d11d23e3832d5f0",
        "08a9c5abdc45fb13b1b1b5f3c27c90cc4735c495e49e094aaeb7f2ec530adb49",
    ),
    ("yang_mills_su2", 4): (
        "0cd48438433e3dfaad471d55fcd8a0f5abc453b3f1cca8fddb384f2ee251f87a",
        "77e85ba2767e13fba860b83774cb6e4e06c1b993a9e707ca158facb1195c36ad",
        "11105f8f29aefe79c50ffbfe36a9ac6791d929bc9a49c825c61bb1736b324d79",
        "dba8e845a889cd095bfd48dc2ff535e061ba532b21733bb63f6b28cb493fd74b",
    ),
}


def normal_forms(name, dim):
    desc = builtin(name, dim=dim)
    theory = desc.theory
    el = euler_lagrange_system(theory)
    proposal = extend_to_bv(theory, [(p.ghost, p.operators) for p in desc.bv.gauge])
    residual = check_master_equation(desc.bv).residual.expr
    return (
        format_expression(theory.lagrangian),
        "\n".join(f"{n}{list(c)} = {format_expression(e)}" for (n, c), e in sorted(el.items())),
        format_expression(proposal.master_action.expr),
        format_expression(residual),
    )


@pytest.mark.parametrize("name, dim", sorted(GOLDEN, key=str))
def test_normal_forms_are_unchanged(name, dim):
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in normal_forms(name, dim))
    assert digests == GOLDEN[name, dim]

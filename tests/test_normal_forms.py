"""Golden normal forms: sha256 digests of the plain-printed Lagrangian, EL
system, ``extend_to_bv`` action and master residual of every builtin at each
dimension it supports, of its bracket outputs (BRST, Koszul-Tate and the
antibracket with an even and an odd F), and of the exact integral of its
Lagrangian on a seeded section over a rational box.  A change to the
kernel's coefficient arithmetic, the term order, the printer, a Koszul sign
or the evaluation on sections that moves any normal form fails here.  The
first digests were recorded with the ``Fraction``-coefficient kernel that
preceded the integer-numerator layout, the bracket digests with the
two-sided derivative stack that preceded the one-sided one, and the
box-integral digests with the ``substitute``-based evaluation of densities
that preceded the packed-exponent one."""

import hashlib
import random
from fractions import Fraction

import pytest

from jetvar import (
    antibracket_density,
    brst_apply,
    builtin,
    check_master_equation,
    euler_lagrange_system,
    extend_to_bv,
    format_expression,
    koszul_tate_apply,
)
from jetvar.core import PARAM, Expression
from jetvar.theory import Section, integrate_on_box_expression

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


def bracket_outputs(name, dim):
    """Plain-printed brackets on small expressions in the first field
    component phi, its antifield phi* and, where the model has one, the first
    ghost component c and its antifield c*; every jet is a t-derivative."""
    bv = builtin(name, dim=dim).bv
    sig = bv.signature
    t = sig.variables[0].name
    first = {}
    for _, gen in sig.jet_generators():
        first.setdefault(gen.role, (gen.name, gen.components()[0]))
    field, comp = first["field"]
    phi, phi_t = sig.coord(field, comp), sig.coord(field, comp, d=(t,))
    star, star_t = sig.coord(field + "*", comp), sig.coord(field + "*", comp, d=(t,))
    ghost_expr = None
    # odd of ghost number -1 and even of ghost number -2
    odd_f = phi * phi * star_t
    even_f = phi * star * star_t
    antifield_expr = phi * star_t
    if "ghost" in first:
        ghost, gcomp = first["ghost"]
        c, c_t = sig.coord(ghost, gcomp), sig.coord(ghost, gcomp, d=(t,))
        cstar = sig.coord(ghost + "*", gcomp)
        ghost_expr = c * c_t
        odd_f = odd_f + c * star * star_t
        even_f = even_f + phi * cstar
        antifield_expr = antifield_expr + c * cstar
    s = bv.master_action
    outputs = {
        "brst field": brst_apply(bv, phi * phi_t * phi_t),
        "kt antifield": koszul_tate_apply(bv, antifield_expr),
        "bracket even": antibracket_density(bv, even_f, s),
        "bracket odd": antibracket_density(bv, odd_f, s),
    }
    if ghost_expr is not None:
        outputs["brst ghost"] = brst_apply(bv, ghost_expr)
    return {label: format_expression(e) for label, e in outputs.items()}


# (model, dim) -> digest of each output of bracket_outputs, recorded at the parent
# of the one-sided derivative stack
BRACKET_GOLDEN = {
    ("free_particle", None): {
        "bracket even": "9e9e02eff78791b32d70315d103d5a5f7aef82af754a2b1d279d4fbdf3c81e3f",
        "bracket odd": "7b1d11b58ae7b080a3b8c16e68da953620351337d431189cacaa252eb819eadf",
        "brst field": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "kt antifield": "f8c58a03450e3c3fc2fc1da2f1b2c3a42e2a8d275c9fb0a61cbca91e9534042b",
    },
    ("maxwell", 2): {
        "bracket even": "6130dd3dcc33a8fd8aa94764f43686f845d3bb67f8d17ed47a21bd18b7afd9dd",
        "bracket odd": "00431c13e6481e822536e42d73829b92e740dedb407fcf9e44bd477cc113b240",
        "brst field": "15fa2e7acaa1fc8114b72664962cf6d3c8355aee519dde8f81eec2a80ec25f22",
        "brst ghost": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "kt antifield": "a662edd5cbc17dd20c7c17c592198cba97a2efe5edf21d69c77e2b7bd9e329f4",
    },
    ("maxwell", 3): {
        "bracket even": "74eaedbcd411423b5658196872feaedfb36e3bcd6bf5887da365f1899c4b1600",
        "bracket odd": "334e0a0bf7b583368a9c0e2f84e9a620d87a5c31dda5c2536025e07a16678ade",
        "brst field": "15fa2e7acaa1fc8114b72664962cf6d3c8355aee519dde8f81eec2a80ec25f22",
        "brst ghost": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "kt antifield": "882e14934d140d385ca619a721dfe6854d096a3c0317773f312f9d2c14f831a4",
    },
    ("maxwell", 4): {
        "bracket even": "9dab2739e3325bbd9b7910f1bfe37cd97ea841050cb11814af6c04d143cf0809",
        "bracket odd": "7c530705c81aeec7811be53d74e069ca4621db2e59491575397c2546697f5b3c",
        "brst field": "15fa2e7acaa1fc8114b72664962cf6d3c8355aee519dde8f81eec2a80ec25f22",
        "brst ghost": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "kt antifield": "900206ae8b81ac250eed98ccc1e43c52bc2c3c8b640ed13137626daaf5fa1c04",
    },
    ("scalar_phi4", 1): {
        "bracket even": "14c0e5d048640663e69634d9cf785cf9d578ae2d1d77297e62b966fc2c8ff0a5",
        "bracket odd": "58ebaa89d2a08d1566b656b8dd2bce96ecca2802f511c19852e10aa17efc4319",
        "brst field": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "kt antifield": "9a2eb412da10da8ebe669f47561a5896b76fbc54776e74504bfdc4d66d494a4c",
    },
    ("scalar_phi4", 2): {
        "bracket even": "61a8a793adb97ef3dd3b655a7e6b5dbd4eec125d972f1230f9799b6f531b3598",
        "bracket odd": "c50157cfe94f341cf832e86b32b74f2fba27a953a4f23de294d94012b16ef239",
        "brst field": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "kt antifield": "ea9c18e7525f046a80584d218125d317d959eadef756b14a206bf85d0af7803f",
    },
    ("scalar_phi4", 3): {
        "bracket even": "9d40d0115e8b47a7c3cc60262eecd62da7c6678a63eb7c3c56e8e531ba66d821",
        "bracket odd": "dafc8efcdfb7b781ee400f72091c1fccfaf3a1bd8942e21521597345a97a48f4",
        "brst field": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "kt antifield": "575926e486565418c115bb9b656d8d4d759334c182f66faef9c65739f00477d3",
    },
    ("scalar_phi4", 4): {
        "bracket even": "54ebdf94afff8e54bdb83dcc7a99c1a342626365326a69374c5c81b795c25078",
        "bracket odd": "e53608a6cacf2075a0fb0216040e58d6606b73efad87860b79dfb97fd01f6796",
        "brst field": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "kt antifield": "925426b4e71c713d89c5d18d384b295918899395a0c0b4acf6708da5eff06d9f",
    },
    ("yang_mills_su2", 2): {
        "bracket even": "b96f748e7981789722f2af54d1b0e55eee03ba0058daec0bea1de4e56e580079",
        "bracket odd": "ad8f8a9747d29f30cd9b0e66db7e0f2dee720d069e95bfa3866f6160b76f9f3c",
        "brst field": "754ed68edfde1c0bd052bd6c7c751bbb69b0c160227752549efc6bcbd0e0de55",
        "brst ghost": "2f5d7458ab6ee850e580fbb033e95280ad7851cbae0857c27f041f59ffe74bcc",
        "kt antifield": "807b0fafea9c18f5666600cf9f004ed41a26597c2579a52f9d2245c09e48cb5c",
    },
    ("yang_mills_su2", 3): {
        "bracket even": "e916992f725fa4e00fd447b09580a0a3a1453ba472e437073ec03adb881a79d3",
        "bracket odd": "65c32a189ebd39dae6a481ab233d5d525962b624d9caec568d696f8e5ac2cb3a",
        "brst field": "754ed68edfde1c0bd052bd6c7c751bbb69b0c160227752549efc6bcbd0e0de55",
        "brst ghost": "2f5d7458ab6ee850e580fbb033e95280ad7851cbae0857c27f041f59ffe74bcc",
        "kt antifield": "337e84f3abb95af9a4bd7352db0f727ea01649c3e13a0feb407c94e3b95e8089",
    },
    ("yang_mills_su2", 4): {
        "bracket even": "0367d8f15effaa44608532a13dd36360b8b940a1bcd8946fb83fdf9993ca9cb8",
        "bracket odd": "9f4713bca8abda9e951548776ec9984c207ac78c7388c275e87c31a4c158b2f3",
        "brst field": "754ed68edfde1c0bd052bd6c7c751bbb69b0c160227752549efc6bcbd0e0de55",
        "brst ghost": "2f5d7458ab6ee850e580fbb033e95280ad7851cbae0857c27f041f59ffe74bcc",
        "kt antifield": "4b44c147e671da3c219581fc9323a0e5786564921484c694b6710f4592c3609e",
    },
}


@pytest.mark.parametrize("name, dim", sorted(BRACKET_GOLDEN, key=str))
def test_bracket_outputs_are_unchanged(name, dim):
    digests = {label: hashlib.sha256(text.encode()).hexdigest()
               for label, text in bracket_outputs(name, dim).items()}
    assert digests == BRACKET_GOLDEN[name, dim]


def box_integral(name, dim):
    """Plain-printed exact integral of the Lagrangian on a seeded section:
    per field component, three terms of a rational times up to two factors
    drawn from the variables and parameters, over the box whose i-th
    variable runs from -1/(i+2) to (i+3)/2."""
    theory = builtin(name, dim=dim).theory
    sig = theory.signature
    rng = random.Random(15)
    letters = [g.name for g in sig.generators if g.role == PARAM] + [
        v.name for v in sig.variables]
    values = {}
    for key in theory.field_components():
        terms = []
        for _ in range(3):
            term = sig.const(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 2)):
                term = term * sig.coord(rng.choice(letters))
            terms.append(term)
        values[key] = Expression.sum(sig, terms)
    box = {v.name: (Fraction(-1, i + 2), Fraction(i + 3, 2))
           for i, v in enumerate(sig.variables)}
    return format_expression(integrate_on_box_expression(theory.lagrangian,
                                                         Section(theory, values), box))


# (model, dim) -> digest of box_integral, recorded with the substitute-based evaluator
BOX_GOLDEN = {
    ("free_particle", None): "b67509ef654f2bdb4b2ae59d8512db834af4dd963f78c5dc9f73de8bf94e3d90",
    ("maxwell", 2): "71b9a2be7d57fe8b854e8439a182706d378c9187b9d0f5eabde107ce85c264a2",
    ("maxwell", 3): "832c8c824fab9d3a3b598484402c8bc9f7267c2e7567d7e72464dcef68979aaa",
    ("maxwell", 4): "f60da497b6ae4d9f3b68d655110ce60ee34384ee5cb83990706aec527324c08c",
    ("scalar_phi4", 1): "d01199f0f75dc3efb594c3f5621b29255ac06c96527efbff4e4abd11d48a0cea",
    ("scalar_phi4", 2): "4367df860c6124730a5505a061931bdff679db8edafcae5cace8127a6fdd9517",
    ("scalar_phi4", 3): "477e57e0a7e01e8b5a4e1ba4ec2848fb04de689afebe18056fa3fd60cf4fe71f",
    ("scalar_phi4", 4): "2c8f0f3bd7a91b97d35c9f735fb70649a67dff08d97db906392f90894572ce19",
    ("yang_mills_su2", 2): "30a2ab769ed2e88ea3c939c67792c4a747424bdd1ea2c85793221d2b5c4046ea",
    ("yang_mills_su2", 3): "f0d8b5e4061d16f1efe47c73c6541e37de92f4d6bb664fc1228ff697a7e1ac6a",
    ("yang_mills_su2", 4): "765d2d2adff27a228c914cac03eb115c6bc946852b4fd1930718b59acd2f353a",
}


@pytest.mark.parametrize("name, dim", sorted(BOX_GOLDEN, key=str))
def test_box_integrals_are_unchanged(name, dim):
    digest = hashlib.sha256(box_integral(name, dim).encode()).hexdigest()
    assert digest == BOX_GOLDEN[name, dim]

import pytest

from fppcert import (
    CertifyOptions,
    build_resolution,
    fpp_certificate,
    h2_of_group,
    parse_presentation,
    todd_coxeter,
)
from fppcert.endos import enumerate_endomorphisms

G_TEXT = "< x, y | x^3, x*y*x^-1*y*x*y^-1*x^-1*y^-1, x^-1*y^-4*x^-1*y^2*x^-1*y^-1 >"
H_TEXT = "< x, y | x^4, y^4, (x*y)^2, (x^-1*y)^2 >"
KLEIN_TEXT = "< x, y | x^2, y^2, (x*y)^2 >"
Z9XZ9_TEXT = "< x, y | x^9, y^9, x*y*x^-1*y^-1 >"

SMALL_GROUP_TEXTS = {
    "trivial": "< x | x >",
    "z2": "< x | x^2 >",
    "z3": "< x | x^3 >",
    "z4": "< x | x^4 >",
    "z5": "< x | x^5 >",
    "klein": KLEIN_TEXT,
    "s3": "< x, y | x^2, y^3, (x*y)^2 >",
    "d4": "< x, y | x^4, y^2, (x*y)^2 >",
    "q8": "< x, y | x^4, x^2*y^-2, y^-1*x*y*x >",
    "z3xz3": "< x, y | x^3, y^3, x*y*x^-1*y^-1 >",
}


@pytest.fixture(scope="session")
def pres_g():
    return parse_presentation(G_TEXT)


@pytest.fixture(scope="session")
def pres_h():
    return parse_presentation(H_TEXT)


@pytest.fixture(scope="session")
def pres_klein():
    return parse_presentation(KLEIN_TEXT)


@pytest.fixture(scope="session")
def pres_z9():
    return parse_presentation(Z9XZ9_TEXT)


@pytest.fixture(scope="session")
def table_g(pres_g):
    return todd_coxeter(pres_g)


@pytest.fixture(scope="session")
def table_h(pres_h):
    return todd_coxeter(pres_h)


@pytest.fixture(scope="session")
def table_z9(pres_z9):
    return todd_coxeter(pres_z9)


@pytest.fixture(scope="session")
def res_g(table_g, pres_g):
    return build_resolution(table_g, pres_g)


@pytest.fixture(scope="session")
def res_h(table_h, pres_h):
    return build_resolution(table_h, pres_h)


@pytest.fixture(scope="session")
def res_z9(table_z9, pres_z9):
    return build_resolution(table_z9, pres_z9)


@pytest.fixture(scope="session")
def h2_g(res_g):
    return h2_of_group(res_g)


@pytest.fixture(scope="session")
def h2_h(res_h):
    return h2_of_group(res_h)


@pytest.fixture(scope="session")
def h2_z9(res_z9):
    return h2_of_group(res_z9)


@pytest.fixture(scope="session")
def endos_g(table_g, pres_g):
    return enumerate_endomorphisms(table_g, pres_g)


@pytest.fixture(scope="session")
def endos_h(table_h, pres_h):
    return enumerate_endomorphisms(table_h, pres_h)


@pytest.fixture(scope="session")
def endos_z9(table_z9, pres_z9):
    return enumerate_endomorphisms(table_z9, pres_z9)


@pytest.fixture(scope="session")
def cert_g(pres_g):
    return fpp_certificate(pres_g)


@pytest.fixture(scope="session")
def cert_h(pres_h):
    return fpp_certificate(pres_h, CertifyOptions(oracle_check=True))


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("presentations")
    (d / "g.txt").write_text(G_TEXT + "\n")
    (d / "h.txt").write_text(H_TEXT + "\n")
    (d / "klein.txt").write_text(KLEIN_TEXT + "\n")
    (d / "free.txt").write_text("< x, y | >\n")
    (d / "bad.txt").write_text("< x, y | x^3, z >\n")
    return d

"""Tests for the CPLEX LP-format export (repro.ilp.lpformat)."""

from repro.ilp import Model
from repro.ilp.lpformat import model_to_lp, write_lp


class TestLpFormat:
    def build(self):
        m = Model("demo")
        x = m.binary("od[a,('slot', 0)]")
        y = m.integer("st[a]", lb=0, ub=50)
        m.add(x + 2 * y >= 3, name="dep[a->b]")
        m.minimize(5 * x + y + 7)
        return m, x, y

    def test_sections_present(self):
        m, _, _ = self.build()
        text = model_to_lp(m)
        for section in ("Minimize", "Subject To", "Bounds", "End"):
            assert section in text

    def test_names_sanitized(self):
        m, _, _ = self.build()
        text = model_to_lp(m)
        assert "[" not in text.split("\n", 1)[1]
        assert "(" not in text.split("\n", 1)[1]

    def test_constant_objective_encoded(self):
        m, _, _ = self.build()
        text = model_to_lp(m)
        assert "const_one" in text
        assert "fix_const: const_one = 1" in text

    def test_binaries_and_generals_listed(self):
        m, _, _ = self.build()
        text = model_to_lp(m)
        assert "Binaries" in text
        assert "Generals" in text

    def test_write_to_file(self, tmp_path):
        m, _, _ = self.build()
        path = tmp_path / "model.lp"
        write_lp(m, path)
        assert path.read_text().startswith("\\ model demo")

    def test_maximize_header(self):
        m = Model(sense="max")
        x = m.binary("x")
        m.maximize(x)
        assert "Maximize" in model_to_lp(m)

    def test_duplicate_sanitized_names_disambiguated(self):
        m = Model()
        a = m.binary("v[1]")
        b = m.binary("v(1)")
        m.add(a + b <= 1)
        text = model_to_lp(m)
        # both variables must appear with distinct names
        bounds = [l for l in text.splitlines() if l.startswith(" 0 <= v")]
        names = {l.split("<=")[1].strip() for l in bounds}
        assert len(names) == 2

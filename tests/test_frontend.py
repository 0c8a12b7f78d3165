"""Tests for the user-facing DSL: Funcs, schedules, dim bookkeeping."""

import pytest

from repro import frontend as hl
from repro.ir import Call, CallType, ForKind, MemoryType


class TestDefinition:
    def test_pure_definition(self):
        x, y = hl.Var("x"), hl.Var("y")
        f = hl.Func("f")
        f[x, y] = 1.0
        assert f.defined
        assert f.dimensions == 2
        assert f.arg_names == ["x", "y"]

    def test_pure_args_must_be_vars(self):
        x = hl.Var("x")
        f = hl.Func("f")
        with pytest.raises(TypeError):
            f[x + 1] = 1.0

    def test_duplicate_args_rejected(self):
        x = hl.Var("x")
        f = hl.Func("f")
        with pytest.raises(ValueError):
            f[x, x] = 1.0

    def test_update_definition_via_iadd(self):
        x = hl.Var("x")
        r = hl.RDom(0, 4, name="r_upd")
        f = hl.Func("f")
        f[x] = 0.0
        f[x] += hl.f32(r.to_expr())
        assert len(f.updates) == 1
        assert "r_upd" in f.updates[0].rvars

    def test_update_before_pure_fails(self):
        x = hl.Var("x")
        f = hl.Func("f")
        with pytest.raises(ValueError):
            f[x] += 1.0

    def test_func_call_expr_carries_func(self):
        x = hl.Var("x")
        f = hl.Func("f")
        f[x] = 2.0
        e = f[x].to_expr()
        assert isinstance(e, Call)
        assert e.call_type == CallType.HALIDE
        assert e.func is f

    def test_image_param_indexing(self):
        img = hl.ImageParam(hl.Float(32), 2, name="img")
        x, y = hl.Var("x"), hl.Var("y")
        e = img[x, y]
        assert e.call_type == CallType.IMAGE
        with pytest.raises(ValueError):
            img[x]

    def test_dtype_from_definition(self):
        x = hl.Var("x")
        f = hl.Func("f")
        f[x] = hl.cast(hl.BFloat(16), 1.0)
        assert f.dtype == hl.BFloat(16)


class TestScheduleDims:
    def make(self):
        x, y = hl.Var("x"), hl.Var("y")
        f = hl.Func("f")
        f[x, y] = 1.0
        return f, x, y

    def test_default_dims_innermost_first(self):
        f, x, y = self.make()
        assert [d.var for d in f.pure.dims] == ["x", "y"]

    def test_split_replaces_dim(self):
        f, x, y = self.make()
        xo, xi = hl.Var("xo"), hl.Var("xi")
        f.split(x, xo, xi, 8)
        assert [d.var for d in f.pure.dims] == ["xi", "xo", "y"]

    def test_split_reusing_old_name(self):
        f, x, y = self.make()
        xi = hl.Var("xi")
        f.split(x, x, xi, 8)
        assert [d.var for d in f.pure.dims] == ["xi", "x", "y"]

    def test_vectorize_with_factor_splits(self):
        f, x, y = self.make()
        f.vectorize(x, 8)
        dims = f.pure.dims
        assert dims[0].kind == ForKind.VECTORIZED
        assert dims[0].var.endswith("i")

    def test_reorder_innermost_first(self):
        f, x, y = self.make()
        f.reorder(y, x)
        assert [d.var for d in f.pure.dims] == ["y", "x"]

    def test_reorder_subset(self):
        f, x, y = self.make()
        xo, xi = hl.Var("xo"), hl.Var("xi")
        f.split(x, xo, xi, 8)  # [xi, xo, y]
        f.reorder(xi, y)  # y moves inward, xo stays put
        assert [d.var for d in f.pure.dims] == ["xi", "xo", "y"]
        f.reorder(y, xi)
        assert [d.var for d in f.pure.dims] == ["y", "xo", "xi"]

    def test_unknown_var_raises(self):
        f, x, y = self.make()
        with pytest.raises(KeyError):
            f.vectorize(hl.Var("nope"))

    def test_update_dims_rvar_innermost(self):
        x = hl.Var("x")
        r = hl.RDom(0, 4, name="r_dims")
        f = hl.Func("f")
        f[x] = 0.0
        f[x] += hl.f32(x + r)
        assert [d.var for d in f.update().dims] == ["r_dims", "x"]

    @pytest.mark.parametrize(
        "directive", ["parallel", "gpu_blocks", "gpu_threads"]
    )
    def test_concurrent_reduction_dim_is_rejected(self, directive):
        """Regression: a racing schedule on a reduction dimension was
        accepted silently (the interpreter ran it serially)."""
        x = hl.Var("x")
        r = hl.RDom(0, 8, name="r_race")
        f = hl.Func("f_race")
        f[x] = 0.0
        f[x] += hl.f32(x + r)
        update = f.update()
        with pytest.raises(hl.ScheduleError, match="r_race"):
            getattr(update, directive)(r)
        # a split-off piece of the reduction is still the reduction
        ro, ri = hl.Var("r_race_o"), hl.Var("r_race_i")
        update.split(r, ro, ri, 4)
        with pytest.raises(hl.ScheduleError, match="r_race_o"):
            getattr(update, directive)(ro)
        # pure dimensions of the same stage, and serial kinds on the
        # reduction, are untouched
        getattr(update, directive)(x)
        update.unroll(ri)

    def test_atomic_flag(self):
        x = hl.Var("x")
        r = hl.RDom(0, 4, name="r_at")
        f = hl.Func("f")
        f[x] = 0.0
        f[x] += 1.0
        f.update().atomic()
        assert f.update().atomic_flag

    def test_bound_validates_args(self):
        f, x, y = self.make()
        f.bound(x, 0, 16)
        assert f.explicit_bounds["x"] == (0, 16)
        with pytest.raises(KeyError):
            f.bound(hl.Var("z"), 0, 4)

    def test_store_in(self):
        f, x, y = self.make()
        f.store_in(MemoryType.AMX_TILE)
        assert f.memory_type == MemoryType.AMX_TILE

    def test_in_wrapper(self):
        f, x, y = self.make()
        w = f.in_()
        assert w.defined
        assert w.arg_names == f.arg_names
        assert f.in_() is w  # cached

    def test_reorder_storage(self):
        f, x, y = self.make()
        f.reorder_storage(y, x)
        assert f.storage_order == ["y", "x"]
        with pytest.raises(ValueError):
            f.reorder_storage(x, x)

    def test_tile(self):
        f, x, y = self.make()
        xi, yi = hl.Var("xi"), hl.Var("yi")
        f.tile(x, y, xi, yi, 4, 8)
        assert [d.var for d in f.pure.dims] == ["xi", "yi", "x", "y"]


class TestRDom:
    def test_1d_acts_as_var(self):
        r = hl.RDom(2, 10, name="rq")
        assert r.name == "rq"
        assert r.x.min_value == 2
        assert r.x.extent == 10

    def test_multi_dim(self):
        r = hl.RDom([(0, 3), (1, 5)], name="r2")
        assert len(r) == 2
        assert r.x.name == "r2.x"
        assert r.y.min_value == 1
        with pytest.raises(TypeError):
            r.to_expr()

    def test_expr_arithmetic(self):
        r = hl.RDom(0, 4, name="ra")
        e = r * 2 + 1
        from repro.ir import free_variables

        assert free_variables(e) == {"ra"}

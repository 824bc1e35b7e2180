package maintain

import (
	"strings"
	"testing"

	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// brandCondSQL filters on product.brand, which the schema declares MUTABLE:
// product has exposed updates, the sale → product dependency is cut
// (Section 2.2), and derivation must keep sale's auxiliary view so brand
// updates can move whole groups in and out of the view.
const brandCondSQL = `
	SELECT product.id, SUM(price) AS total, COUNT(*) AS cnt
	FROM sale, product
	WHERE sale.productid = product.id AND product.brand = 'acme'
	GROUP BY product.id`

// categoryCondSQL filters on product.category, which is NOT declared
// mutable: product has no exposed updates, sale transitively depends on
// product, and with product k-annotated the sale auxiliary view is
// omitted. An update that changes category anyway (schema mutability is a
// declaration about the sources, not a guarantee about externally supplied
// change-logs) is then unmaintainable.
const categoryCondSQL = `
	SELECT product.id, SUM(price) AS total, COUNT(*) AS cnt
	FROM sale, product
	WHERE sale.productid = product.id AND product.category = 'tools'
	GROUP BY product.id`

// productBrandSQL groups by product's key and its mutable brand: product is
// k-annotated, so derivation omits the sale auxiliary view and brand
// updates re-key groups in place.
const productBrandSQL = `
	SELECT product.id, product.brand, SUM(price) AS total, COUNT(*) AS cnt
	FROM sale, product WHERE sale.productid = product.id
	GROUP BY product.id, product.brand`

// TestMaintainDimensionUpdateAcrossLocalCondition: brand updates move
// groups across the view's local condition in both directions and must
// maintain exactly, which requires the retained sale detail.
func TestMaintainDimensionUpdateAcrossLocalCondition(t *testing.T) {
	f := newFixture(t, retailDDL, brandCondSQL, true)
	if f.engine.Aux("sale") == nil {
		t.Fatal("sale auxiliary view must NOT be omitted: product.brand is mutable and filtered on")
	}
	f.seedRetail()
	f.initEngine()

	// Product 100 ('acme') has sales 1, 2, 6: renaming it moves its group
	// OUT of the view.
	f.updateRow("product", 100, map[string]types.Value{"brand": types.Str("junk")})
	// Product 101 ('bolt') has sales 3, 4: renaming it to 'acme' moves its
	// group INTO the view — impossible to synthesize without detail data.
	f.updateRow("product", 101, map[string]types.Value{"brand": types.Str("acme")})
	// And back again.
	f.updateRow("product", 100, map[string]types.Value{"brand": types.Str("acme")})
	f.updateRow("product", 101, map[string]types.Value{"brand": types.Str("bolt")})
	// Fact changes keep working against the retained auxiliary view.
	f.insertSale(1, 100, 7, 8)
	f.deleteRow("sale", 1)
}

// TestRekeyRejectsCrossConditionUpdateWithOmittedRoot is the regression
// test for the silent rekey divergence: with the root auxiliary view
// omitted, Engine.rekey used to silently skip a dimension update whose new
// image failed the view's local conditions while the old image passed,
// leaving dead groups in the materialized view forever. The engine must
// instead reject the update as unmaintainable, with zero state change.
// (Before the fix this test failed: Apply succeeded and the view silently
// diverged from recomputation.)
func TestRekeyRejectsCrossConditionUpdateWithOmittedRoot(t *testing.T) {
	f := newFixture(t, retailDDL, categoryCondSQL, true)
	if f.engine.Aux("sale") != nil {
		t.Fatal("sale auxiliary view should be omitted (product is k-annotated, category immutable)")
	}
	f.seedRetail()
	f.initEngine()

	// An externally produced change-log entry moves product 100 out of the
	// 'tools' category. The engine has no detail to subtract sales 1, 2, 6
	// from the view, so it must refuse rather than silently keep the group.
	old := tuple.Tuple{types.Int(100), types.Str("acme"), types.Str("tools")}
	upd := tuple.Tuple{types.Int(100), types.Str("acme"), types.Str("misc")}
	before := captureEngine(f.engine, f.view.Tables)
	err := f.engine.Apply(Delta{Table: "product", Updates: []Update{{Old: old, New: upd}}})
	if err == nil {
		t.Fatal("cross-condition update with omitted root must be rejected, not silently skipped")
	}
	if !strings.Contains(err.Error(), "cannot maintain") {
		t.Fatalf("err = %v", err)
	}
	before.requireUnchanged(t, f.engine, f.view.Tables, "rejected cross-condition update")
	// The untouched engine still matches recomputation from the sources.
	f.check("after rejected update")

	// The inbound direction (old image outside the view, new inside) is
	// just as unmaintainable: the view cannot conjure the missed detail.
	old = tuple.Tuple{types.Int(102), types.Str("cask"), types.Str("food")}
	upd = tuple.Tuple{types.Int(102), types.Str("cask"), types.Str("tools")}
	before = captureEngine(f.engine, f.view.Tables)
	err = f.engine.Apply(Delta{Table: "product", Updates: []Update{{Old: old, New: upd}}})
	if err == nil {
		t.Fatal("inbound cross-condition update must be rejected")
	}
	before.requireUnchanged(t, f.engine, f.view.Tables, "rejected inbound update")

	// Updates that do not cross the condition remain fine: a rename within
	// the same category rekeys nothing (id is the group key) and both
	// images fail or pass together.
	old = tuple.Tuple{types.Int(102), types.Str("cask"), types.Str("food")}
	upd = tuple.Tuple{types.Int(102), types.Str("keg"), types.Str("food")}
	if err := f.engine.Apply(Delta{Table: "product", Updates: []Update{{Old: old, New: upd}}}); err != nil {
		t.Fatalf("in-place update outside the view rejected: %v", err)
	}
	f.check("after harmless update")
}

// TestRekeyGroupByStillWorksWithOmittedRoot: pure group-by rekeys (no
// local condition involved) remain supported with an omitted root — the
// legality guard must not over-reject.
func TestRekeyGroupByStillWorksWithOmittedRoot(t *testing.T) {
	f := newFixture(t, retailDDL, productBrandSQL, true)
	if f.engine.Aux("sale") != nil {
		t.Fatal("sale aux should be omitted (product is k-annotated)")
	}
	f.seedRetail()
	f.initEngine()
	f.updateRow("product", 100, map[string]types.Value{"brand": types.Str("renamed")})
	f.updateRow("product", 100, map[string]types.Value{"brand": types.Str("acme")})
}

// TestRekeyRejectsKeyChangeWithOmittedRoot: an update that changes a
// primary key is not a legal source transition (storage.DB.Update refuses
// it). With the root auxiliary view omitted, rekey used to accept one:
// moving product 100 to 900 left group 100 (total 119, cnt 3) in the view,
// while recomputation over the changed sources drops it. The engine must
// reject the update with zero state change.
func TestRekeyRejectsKeyChangeWithOmittedRoot(t *testing.T) {
	f := newFixture(t, retailDDL, productBrandSQL, true)
	if f.engine.Aux("sale") != nil {
		t.Fatal("sale aux should be omitted (product is k-annotated)")
	}
	f.seedRetail()
	f.initEngine()

	old := tuple.Tuple{types.Int(100), types.Str("acme"), types.Str("tools")}
	upd := tuple.Tuple{types.Int(900), types.Str("acme"), types.Str("tools")}
	before := captureEngine(f.engine, f.view.Tables)
	err := f.engine.Apply(Delta{Table: "product", Updates: []Update{{Old: old, New: upd}}})
	if err == nil || !strings.Contains(err.Error(), "changes its key") {
		t.Fatalf("key-changing update: err = %v, want a key-change rejection", err)
	}
	before.requireUnchanged(t, f.engine, f.view.Tables, "rejected key change")
	f.check("after rejected key change")
}

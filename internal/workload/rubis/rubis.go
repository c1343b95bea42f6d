// Package rubis implements the RUBiS bidding-site benchmark [5] on the
// stored-procedure IR. As in the paper's §IV-B, the evaluation focuses on
// the five update transactions, all of which are dependent transactions
// (DTs): every one inserts into at least one table whose next unique
// identifier is read from the store (a pivot). Two representative read-only
// transactions are included so mixed workloads exercise the ROT path.
package rubis

import (
	"fmt"
	"math/rand"

	"prognosticator/internal/lang"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
)

// Table names.
const (
	TUsers    = "USERS"
	TItems    = "ITEMS"
	TBids     = "BIDS"
	TBuyNow   = "BUYNOW"
	TComments = "COMMENTS"
	TIDs      = "IDS" // singleton counters for unique id generation
)

// Config scales the benchmark.
type Config struct {
	Users int
	Items int
}

// DefaultConfig returns the default sizing.
func DefaultConfig() Config { return Config{Users: 1000, Items: 1000} }

// Schema returns the RUBiS schema.
func Schema() *lang.Schema {
	return lang.NewSchema(
		lang.TableSpec{Name: TUsers, KeyArity: 1},
		lang.TableSpec{Name: TItems, KeyArity: 1},
		lang.TableSpec{Name: TBids, KeyArity: 2},
		lang.TableSpec{Name: TBuyNow, KeyArity: 2},
		lang.TableSpec{Name: TComments, KeyArity: 2},
		lang.TableSpec{Name: TIDs, KeyArity: 1},
	)
}

// Populate loads the initial state at epoch 0. Each table's rows are built
// from one value.Shape, so they share their field names.
func Populate(st *store.Store, cfg Config) {
	var (
		user    = value.NewShape("name", "rating", "balance", "nbComments")
		item    = value.NewShape("sellerId", "price", "maxBid", "nbBids", "quantity", "nbBuyNow")
		counter = value.NewShape("next")
	)
	for u := 1; u <= cfg.Users; u++ {
		st.Put(0, value.NewKey(TUsers, value.Int(int64(u))),
			user.Record(value.Str(fmt.Sprintf("user-%d", u)), value.Int(0), value.Int(0), value.Int(0)))
	}
	for i := 1; i <= cfg.Items; i++ {
		st.Put(0, value.NewKey(TItems, value.Int(int64(i))),
			item.Record(value.Int(int64(1+i%cfg.Users)), value.Int(int64(10+i%90)),
				value.Int(0), value.Int(0), value.Int(10), value.Int(0)))
	}
	st.Put(0, value.NewKey(TIDs, value.Str("users")), counter.Record(value.Int(int64(cfg.Users+1))))
	st.Put(0, value.NewKey(TIDs, value.Str("items")), counter.Record(value.Int(int64(cfg.Items+1))))
}

// StoreBidProg: place a bid on an item. DT — the bid's slot index is the
// item's current nbBids, read from the store.
func StoreBidProg(cfg Config) *lang.Program {
	return &lang.Program{
		Name: "storeBid",
		Params: []lang.Param{
			lang.IntParam("itemId", 1, int64(cfg.Items)),
			lang.IntParam("userId", 1, int64(cfg.Users)),
			lang.IntParam("amount", 1, 10000),
		},
		Body: []lang.Stmt{
			lang.GetS("item", TItems, lang.P("itemId")),
			lang.Set("slot", lang.Fld(lang.L("item"), "nbBids")),
			lang.PutS(TBids, lang.Key(lang.P("itemId"), lang.L("slot")),
				lang.RecE(lang.F("userId", lang.P("userId")), lang.F("amount", lang.P("amount")))),
			lang.SetF("item", "nbBids", lang.Add(lang.L("slot"), lang.C(1))),
			// Value-only branch: does not affect the key-set.
			lang.IfS(lang.Gt(lang.P("amount"), lang.Fld(lang.L("item"), "maxBid")),
				lang.SetF("item", "maxBid", lang.P("amount")),
			),
			lang.PutS(TItems, lang.Key(lang.P("itemId")), lang.L("item")),
		},
	}
}

// StoreBuyNowProg: buy an item immediately. DT via the item's nbBuyNow slot.
func StoreBuyNowProg(cfg Config) *lang.Program {
	return &lang.Program{
		Name: "storeBuyNow",
		Params: []lang.Param{
			lang.IntParam("itemId", 1, int64(cfg.Items)),
			lang.IntParam("userId", 1, int64(cfg.Users)),
			lang.IntParam("qty", 1, 5),
		},
		Body: []lang.Stmt{
			lang.GetS("item", TItems, lang.P("itemId")),
			lang.Set("slot", lang.Fld(lang.L("item"), "nbBuyNow")),
			lang.PutS(TBuyNow, lang.Key(lang.P("itemId"), lang.L("slot")),
				lang.RecE(lang.F("userId", lang.P("userId")), lang.F("qty", lang.P("qty")))),
			lang.SetF("item", "nbBuyNow", lang.Add(lang.L("slot"), lang.C(1))),
			lang.SetF("item", "quantity", lang.Sub(lang.Fld(lang.L("item"), "quantity"), lang.P("qty"))),
			lang.PutS(TItems, lang.Key(lang.P("itemId")), lang.L("item")),
		},
	}
}

// StoreCommentProg: comment on a user. DT via the target user's nbComments
// slot; also updates the target's rating.
func StoreCommentProg(cfg Config) *lang.Program {
	return &lang.Program{
		Name: "storeComment",
		Params: []lang.Param{
			lang.IntParam("toId", 1, int64(cfg.Users)),
			lang.IntParam("fromId", 1, int64(cfg.Users)),
			lang.IntParam("rating", -5, 5),
		},
		Body: []lang.Stmt{
			lang.GetS("to", TUsers, lang.P("toId")),
			lang.Set("slot", lang.Fld(lang.L("to"), "nbComments")),
			lang.PutS(TComments, lang.Key(lang.P("toId"), lang.L("slot")),
				lang.RecE(lang.F("fromId", lang.P("fromId")), lang.F("rating", lang.P("rating")))),
			lang.SetF("to", "nbComments", lang.Add(lang.L("slot"), lang.C(1))),
			lang.SetF("to", "rating", lang.Add(lang.Fld(lang.L("to"), "rating"), lang.P("rating"))),
			lang.PutS(TUsers, lang.Key(lang.P("toId")), lang.L("to")),
		},
	}
}

// RegisterUserProg: create a user with a store-generated unique id. DT via
// the IDS counter — the insert key is a pivot.
func RegisterUserProg(cfg Config) *lang.Program {
	return &lang.Program{
		Name: "registerUser",
		Params: []lang.Param{
			lang.IntParam("rating", 0, 5),
		},
		Body: []lang.Stmt{
			lang.GetS("ids", TIDs, lang.Cs("users")),
			lang.Set("uid", lang.Fld(lang.L("ids"), "next")),
			lang.PutS(TUsers, lang.Key(lang.L("uid")),
				lang.RecE(
					lang.F("rating", lang.P("rating")),
					lang.F("balance", lang.C(0)),
					lang.F("nbComments", lang.C(0)),
				)),
			lang.SetF("ids", "next", lang.Add(lang.L("uid"), lang.C(1))),
			lang.PutS(TIDs, lang.Key(lang.Cs("users")), lang.L("ids")),
			lang.EmitS("userId", lang.L("uid")),
		},
	}
}

// RegisterItemProg: list an item for auction. DT via the IDS counter.
func RegisterItemProg(cfg Config) *lang.Program {
	return &lang.Program{
		Name: "registerItem",
		Params: []lang.Param{
			lang.IntParam("sellerId", 1, int64(cfg.Users)),
			lang.IntParam("price", 1, 10000),
			lang.IntParam("quantity", 1, 10),
		},
		Body: []lang.Stmt{
			lang.GetS("ids", TIDs, lang.Cs("items")),
			lang.Set("iid", lang.Fld(lang.L("ids"), "next")),
			lang.PutS(TItems, lang.Key(lang.L("iid")),
				lang.RecE(
					lang.F("sellerId", lang.P("sellerId")),
					lang.F("price", lang.P("price")),
					lang.F("quantity", lang.P("quantity")),
					lang.F("maxBid", lang.C(0)),
					lang.F("nbBids", lang.C(0)),
					lang.F("nbBuyNow", lang.C(0)),
				)),
			lang.SetF("ids", "next", lang.Add(lang.L("iid"), lang.C(1))),
			lang.PutS(TIDs, lang.Key(lang.Cs("items")), lang.L("ids")),
			lang.EmitS("itemId", lang.L("iid")),
		},
	}
}

// ViewItemProg: read-only item view.
func ViewItemProg(cfg Config) *lang.Program {
	return &lang.Program{
		Name:   "viewItem",
		Params: []lang.Param{lang.IntParam("itemId", 1, int64(cfg.Items))},
		Body: []lang.Stmt{
			lang.GetS("item", TItems, lang.P("itemId")),
			lang.EmitS("price", lang.Fld(lang.L("item"), "price")),
			lang.EmitS("maxBid", lang.Fld(lang.L("item"), "maxBid")),
			lang.EmitS("nbBids", lang.Fld(lang.L("item"), "nbBids")),
		},
	}
}

// ViewBidHistoryProg: read-only view of an item's most recent bids. The
// bid count is a pivot, so even this ROT has store-dependent reads — the
// per-slot guard gives the profile one branch per inspected slot, like
// TPC-C's delivery (ROT profiles are analysed but never instantiated, so
// the cost is offline-only).
func ViewBidHistoryProg(cfg Config) *lang.Program {
	return &lang.Program{
		Name:   "viewBidHistory",
		Params: []lang.Param{lang.IntParam("itemId", 1, int64(cfg.Items))},
		Body: []lang.Stmt{
			lang.GetS("item", TItems, lang.P("itemId")),
			lang.Set("nb", lang.Fld(lang.L("item"), "nbBids")),
			lang.Set("sum", lang.C(0)),
			lang.Set("count", lang.C(0)),
			lang.ForS("k", lang.C(1), lang.C(6),
				lang.Set("slot", lang.Sub(lang.L("nb"), lang.L("k"))),
				lang.IfS(lang.Ge(lang.L("slot"), lang.C(0)),
					lang.GetS("bid", TBids, lang.P("itemId"), lang.L("slot")),
					lang.Set("sum", lang.Add(lang.L("sum"), lang.Fld(lang.L("bid"), "amount"))),
					lang.Set("count", lang.Add(lang.L("count"), lang.C(1))),
				),
			),
			lang.EmitS("bids", lang.L("count")),
			lang.EmitS("totalAmount", lang.L("sum")),
		},
	}
}

// ViewUserProg: read-only user view.
func ViewUserProg(cfg Config) *lang.Program {
	return &lang.Program{
		Name:   "viewUser",
		Params: []lang.Param{lang.IntParam("userId", 1, int64(cfg.Users))},
		Body: []lang.Stmt{
			lang.GetS("u", TUsers, lang.P("userId")),
			lang.EmitS("rating", lang.Fld(lang.L("u"), "rating")),
			lang.EmitS("nbComments", lang.Fld(lang.L("u"), "nbComments")),
		},
	}
}

// UpdatePrograms returns the five update transactions (all DT), the
// workload of the paper's Fig. 4.
func UpdatePrograms(cfg Config) []*lang.Program {
	return []*lang.Program{
		StoreBidProg(cfg), StoreBuyNowProg(cfg), StoreCommentProg(cfg),
		RegisterUserProg(cfg), RegisterItemProg(cfg),
	}
}

// Programs returns all transactions including the read-only views.
func Programs(cfg Config) []*lang.Program {
	return append(UpdatePrograms(cfg), ViewItemProg(cfg), ViewUserProg(cfg), ViewBidHistoryProg(cfg))
}

// Generator produces the RUBiS-C update mix of the paper (§IV-B, [21]):
// 50% storeBid, the other four update transactions at 12.5% each.
type Generator struct {
	cfg Config
	r   *rand.Rand
}

// NewGenerator returns a deterministic generator.
func NewGenerator(cfg Config, seed int64) *Generator {
	return &Generator{cfg: cfg, r: rand.New(rand.NewSource(seed))}
}

// Next returns the next transaction in the RUBiS-C mix.
func (g *Generator) Next() (string, map[string]value.Value) {
	p := g.r.Intn(8)
	switch {
	case p < 4:
		return "storeBid", map[string]value.Value{
			"itemId": value.Int(1 + g.r.Int63n(int64(g.cfg.Items))),
			"userId": value.Int(1 + g.r.Int63n(int64(g.cfg.Users))),
			"amount": value.Int(1 + g.r.Int63n(10000)),
		}
	case p == 4:
		return "storeBuyNow", map[string]value.Value{
			"itemId": value.Int(1 + g.r.Int63n(int64(g.cfg.Items))),
			"userId": value.Int(1 + g.r.Int63n(int64(g.cfg.Users))),
			"qty":    value.Int(1 + g.r.Int63n(5)),
		}
	case p == 5:
		return "storeComment", map[string]value.Value{
			"toId":   value.Int(1 + g.r.Int63n(int64(g.cfg.Users))),
			"fromId": value.Int(1 + g.r.Int63n(int64(g.cfg.Users))),
			"rating": value.Int(g.r.Int63n(11) - 5),
		}
	case p == 6:
		return "registerUser", map[string]value.Value{
			"rating": value.Int(g.r.Int63n(6)),
		}
	default:
		return "registerItem", map[string]value.Value{
			"sellerId": value.Int(1 + g.r.Int63n(int64(g.cfg.Users))),
			"price":    value.Int(1 + g.r.Int63n(10000)),
			"quantity": value.Int(1 + g.r.Int63n(10)),
		}
	}
}

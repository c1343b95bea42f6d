// Package tpcc implements the TPC-C benchmark [36] on the stored-procedure
// IR: schema, population, the five transactions, and the standard-mix input
// generator. The number of warehouses is the contention knob used throughout
// the paper's §IV (100 = low, 10 = medium, 1 = high contention).
//
// Simplifications relative to the full TPC-C specification, chosen to
// preserve the paper-relevant structure (transaction classes, pivot
// structure, conflict footprints) while fitting the key/value GET/PUT model
// the paper itself assumes:
//   - customers are selected by id (no last-name secondary index);
//   - the delivery transaction tracks the oldest undelivered order with a
//     per-district counter instead of scanning the NEW-ORDER index, and
//     folds per-order-line delivery dates into the order record — it keeps
//     the per-district "is there an undelivered order" branch that gives
//     the paper its 1024 key-sets and the pivot-heavy profile;
//   - stock-level returns quantities for the most recent orders' first
//     lines; threshold counting happens on emitted values (value-only, so
//     it does not affect the RWS).
package tpcc

import (
	"fmt"
	"math/rand"

	"prognosticator/internal/lang"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
)

// Table names.
const (
	TWarehouse = "WAREHOUSE"
	TDistrict  = "DISTRICT"
	TCustomer  = "CUSTOMER"
	TStock     = "STOCK"
	TItem      = "ITEM"
	TOrder     = "ORDER"
	TNewOrder  = "NEWORDER"
	TOrderLine = "ORDERLINE"
	THistory   = "HISTORY"
)

// Config scales the benchmark. Districts per warehouse is fixed at 10 by
// the specification; the remaining sizes are scaled down from the spec's
// 100k items / 3k customers so populated stores stay laptop-sized — the
// contention structure (the paper's axis) depends on warehouses, not on
// catalog size.
type Config struct {
	Warehouses           int
	Items                int
	CustomersPerDistrict int
	// OrderLinesMin/Max bound olCnt (spec: 5..15).
	OrderLinesMin, OrderLinesMax int
}

// DefaultConfig returns the scaled-down default sizing.
func DefaultConfig(warehouses int) Config {
	return Config{
		Warehouses:           warehouses,
		Items:                1000,
		CustomersPerDistrict: 100,
		OrderLinesMin:        5,
		OrderLinesMax:        15,
	}
}

// Districts per warehouse per the TPC-C specification.
const Districts = 10

// Schema returns the TPC-C schema.
func Schema() *lang.Schema {
	return lang.NewSchema(
		lang.TableSpec{Name: TWarehouse, KeyArity: 1},
		lang.TableSpec{Name: TDistrict, KeyArity: 2},
		lang.TableSpec{Name: TCustomer, KeyArity: 3},
		lang.TableSpec{Name: TStock, KeyArity: 2},
		lang.TableSpec{Name: TItem, KeyArity: 1},
		lang.TableSpec{Name: TOrder, KeyArity: 3},
		lang.TableSpec{Name: TNewOrder, KeyArity: 3},
		lang.TableSpec{Name: TOrderLine, KeyArity: 4},
		lang.TableSpec{Name: THistory, KeyArity: 3},
	)
}

// Populate loads the initial state at epoch 0. Each table's rows are built
// from one value.Shape, so they share their field names.
func Populate(st *store.Store, cfg Config) {
	var (
		item      = value.NewShape("price", "name")
		warehouse = value.NewShape("ytd", "tax")
		stock     = value.NewShape("quantity", "ytd", "orderCnt", "remoteCnt")
		district  = value.NewShape("nextOId", "nextDeliveryOId", "ytd", "tax")
		customer  = value.NewShape("balance", "ytdPayment", "paymentCnt", "deliveryCnt", "discount")
		history   = value.NewShape("amount", "count")
	)
	for i := 1; i <= cfg.Items; i++ {
		st.Put(0, value.NewKey(TItem, value.Int(int64(i))),
			item.Record(value.Int(int64(100+i%9900)), value.Str(fmt.Sprintf("item-%d", i))))
	}
	for w := 1; w <= cfg.Warehouses; w++ {
		wi := int64(w)
		st.Put(0, value.NewKey(TWarehouse, value.Int(wi)), warehouse.Record(value.Int(0), value.Int(10)))
		for i := 1; i <= cfg.Items; i++ {
			st.Put(0, value.NewKey(TStock, value.Int(wi), value.Int(int64(i))),
				stock.Record(value.Int(50), value.Int(0), value.Int(0), value.Int(0)))
		}
		for d := 1; d <= Districts; d++ {
			di := int64(d)
			st.Put(0, value.NewKey(TDistrict, value.Int(wi), value.Int(di)),
				district.Record(value.Int(1), value.Int(1), value.Int(0), value.Int(5)))
			for c := 1; c <= cfg.CustomersPerDistrict; c++ {
				st.Put(0, value.NewKey(TCustomer, value.Int(wi), value.Int(di), value.Int(int64(c))),
					customer.Record(value.Int(-1000), value.Int(1000), value.Int(1), value.Int(0), value.Int(5)))
				st.Put(0, value.NewKey(THistory, value.Int(wi), value.Int(di), value.Int(int64(c))),
					history.Record(value.Int(1000), value.Int(1)))
			}
		}
	}
}

// NewOrderProg builds the newOrder transaction (DT: the order id comes from
// the district's nextOId pivot). It mirrors the paper's Algorithm 2,
// extended with the spec's item/stock/customer legs and the order/order-line
// inserts.
func NewOrderProg(cfg Config) *lang.Program {
	maxOL := cfg.OrderLinesMax
	return &lang.Program{
		Name: "newOrder",
		Params: []lang.Param{
			lang.IntParam("wId", 1, int64(cfg.Warehouses)),
			lang.IntParam("dId", 1, Districts),
			lang.IntParam("cId", 1, int64(cfg.CustomersPerDistrict)),
			lang.IntParam("olCnt", int64(cfg.OrderLinesMin), int64(cfg.OrderLinesMax)),
			lang.ListParam("olIds", lang.IntParam("", 1, int64(cfg.Items)), maxOL, "olCnt"),
			lang.ListParam("olSupplyW", lang.IntParam("", 1, int64(cfg.Warehouses)), maxOL, "olCnt"),
			lang.ListParam("olQty", lang.IntParam("", 1, 10), maxOL, "olCnt"),
		},
		Body: []lang.Stmt{
			// District: read nextOId (the pivot), bump it.
			lang.GetS("dist", TDistrict, lang.P("wId"), lang.P("dId")),
			lang.Set("oId", lang.Fld(lang.L("dist"), "nextOId")),
			lang.SetF("dist", "nextOId", lang.Add(lang.L("oId"), lang.C(1))),
			lang.PutS(TDistrict, lang.Key(lang.P("wId"), lang.P("dId")), lang.L("dist")),
			// Customer discount (value-only read).
			lang.GetS("cust", TCustomer, lang.P("wId"), lang.P("dId"), lang.P("cId")),
			lang.Set("discount", lang.Fld(lang.L("cust"), "discount")),
			// Order lines.
			lang.Set("total", lang.C(0)),
			lang.Set("allLocal", lang.C(1)),
			lang.ForS("i", lang.C(0), lang.P("olCnt"),
				lang.Set("iid", lang.Idx(lang.P("olIds"), lang.L("i"))),
				lang.Set("sw", lang.Idx(lang.P("olSupplyW"), lang.L("i"))),
				lang.Set("qty", lang.Idx(lang.P("olQty"), lang.L("i"))),
				lang.GetS("item", TItem, lang.L("iid")),
				lang.GetS("stock", TStock, lang.L("sw"), lang.L("iid")),
				// Algorithm 2's branch: only the written VALUE depends on
				// it, so symbolic execution never forks here.
				lang.IfElse(lang.Gt(lang.Fld(lang.L("stock"), "quantity"), lang.Add(lang.L("qty"), lang.C(10))),
					[]lang.Stmt{lang.SetF("stock", "quantity",
						lang.Sub(lang.Fld(lang.L("stock"), "quantity"), lang.L("qty")))},
					[]lang.Stmt{lang.SetF("stock", "quantity",
						lang.Add(lang.Sub(lang.Fld(lang.L("stock"), "quantity"), lang.L("qty")), lang.C(91)))},
				),
				lang.SetF("stock", "ytd", lang.Add(lang.Fld(lang.L("stock"), "ytd"), lang.L("qty"))),
				lang.SetF("stock", "orderCnt", lang.Add(lang.Fld(lang.L("stock"), "orderCnt"), lang.C(1))),
				lang.IfS(lang.Ne(lang.L("sw"), lang.P("wId")),
					lang.SetF("stock", "remoteCnt", lang.Add(lang.Fld(lang.L("stock"), "remoteCnt"), lang.C(1))),
					lang.Set("allLocal", lang.C(0)),
				),
				lang.PutS(TStock, lang.Key(lang.L("sw"), lang.L("iid")), lang.L("stock")),
				lang.Set("amount", lang.Mul(lang.L("qty"), lang.Fld(lang.L("item"), "price"))),
				lang.Set("total", lang.Add(lang.L("total"), lang.L("amount"))),
				// Order line keyed by the pivot order id.
				lang.PutS(TOrderLine,
					lang.Key(lang.P("wId"), lang.P("dId"), lang.L("oId"), lang.L("i")),
					lang.RecE(
						lang.F("iId", lang.L("iid")),
						lang.F("qty", lang.L("qty")),
						lang.F("amount", lang.L("amount")),
						lang.F("deliveryD", lang.C(0)),
					)),
			),
			// Order + new-order entries (indirect keys via the pivot).
			lang.PutS(TOrder, lang.Key(lang.P("wId"), lang.P("dId"), lang.L("oId")),
				lang.RecE(
					lang.F("cId", lang.P("cId")),
					lang.F("olCnt", lang.P("olCnt")),
					lang.F("carrierId", lang.C(0)),
					lang.F("allLocal", lang.L("allLocal")),
					lang.F("total", lang.L("total")),
				)),
			lang.PutS(TNewOrder, lang.Key(lang.P("wId"), lang.P("dId"), lang.L("oId")),
				lang.RecE(lang.F("pending", lang.C(1)))),
			lang.EmitS("orderId", lang.L("oId")),
			lang.EmitS("total", lang.L("total")),
		},
	}
}

// PaymentProg builds the payment transaction (IT: every key derives from
// inputs). The 15% remote-customer case of the spec changes which inputs
// are drawn, not the key structure.
func PaymentProg(cfg Config) *lang.Program {
	return &lang.Program{
		Name: "payment",
		Params: []lang.Param{
			lang.IntParam("wId", 1, int64(cfg.Warehouses)),
			lang.IntParam("dId", 1, Districts),
			lang.IntParam("cWId", 1, int64(cfg.Warehouses)),
			lang.IntParam("cDId", 1, Districts),
			lang.IntParam("cId", 1, int64(cfg.CustomersPerDistrict)),
			lang.IntParam("amount", 1, 5000),
		},
		Body: []lang.Stmt{
			lang.GetS("wh", TWarehouse, lang.P("wId")),
			lang.SetF("wh", "ytd", lang.Add(lang.Fld(lang.L("wh"), "ytd"), lang.P("amount"))),
			lang.PutS(TWarehouse, lang.Key(lang.P("wId")), lang.L("wh")),
			lang.GetS("dist", TDistrict, lang.P("wId"), lang.P("dId")),
			lang.SetF("dist", "ytd", lang.Add(lang.Fld(lang.L("dist"), "ytd"), lang.P("amount"))),
			lang.PutS(TDistrict, lang.Key(lang.P("wId"), lang.P("dId")), lang.L("dist")),
			lang.GetS("cust", TCustomer, lang.P("cWId"), lang.P("cDId"), lang.P("cId")),
			lang.SetF("cust", "balance", lang.Sub(lang.Fld(lang.L("cust"), "balance"), lang.P("amount"))),
			lang.SetF("cust", "ytdPayment", lang.Add(lang.Fld(lang.L("cust"), "ytdPayment"), lang.P("amount"))),
			lang.SetF("cust", "paymentCnt", lang.Add(lang.Fld(lang.L("cust"), "paymentCnt"), lang.C(1))),
			lang.PutS(TCustomer, lang.Key(lang.P("cWId"), lang.P("cDId"), lang.P("cId")), lang.L("cust")),
			lang.GetS("hist", THistory, lang.P("cWId"), lang.P("cDId"), lang.P("cId")),
			lang.SetF("hist", "amount", lang.Add(lang.Fld(lang.L("hist"), "amount"), lang.P("amount"))),
			lang.SetF("hist", "count", lang.Add(lang.Fld(lang.L("hist"), "count"), lang.C(1))),
			lang.PutS(THistory, lang.Key(lang.P("cWId"), lang.P("cDId"), lang.P("cId")), lang.L("hist")),
		},
	}
}

// DeliveryProg builds the delivery transaction (DT): for each of the 10
// districts it checks whether an undelivered order exists (a branch on two
// pivots — this is what makes delivery's profile 2^10 key-sets, as in the
// paper's Table I) and, if so, delivers the oldest one.
func DeliveryProg(cfg Config) *lang.Program {
	return &lang.Program{
		Name: "delivery",
		Params: []lang.Param{
			lang.IntParam("wId", 1, int64(cfg.Warehouses)),
			lang.IntParam("carrierId", 1, 10),
		},
		Body: []lang.Stmt{
			lang.ForS("d", lang.C(1), lang.C(Districts+1),
				lang.GetS("dist", TDistrict, lang.P("wId"), lang.L("d")),
				lang.Set("delOId", lang.Fld(lang.L("dist"), "nextDeliveryOId")),
				// Undelivered order exists iff delOId < nextOId. Both sides
				// are pivots: this branch decides which keys are written.
				lang.IfS(lang.Lt(lang.L("delOId"), lang.Fld(lang.L("dist"), "nextOId")),
					lang.GetS("order", TOrder, lang.P("wId"), lang.L("d"), lang.L("delOId")),
					lang.Set("cId", lang.Fld(lang.L("order"), "cId")),
					lang.SetF("order", "carrierId", lang.P("carrierId")),
					lang.SetF("order", "deliveryD", lang.C(1)),
					lang.PutS(TOrder, lang.Key(lang.P("wId"), lang.L("d"), lang.L("delOId")), lang.L("order")),
					lang.DelS(TNewOrder, lang.P("wId"), lang.L("d"), lang.L("delOId")),
					lang.GetS("cust", TCustomer, lang.P("wId"), lang.L("d"), lang.L("cId")),
					lang.SetF("cust", "balance",
						lang.Add(lang.Fld(lang.L("cust"), "balance"), lang.Fld(lang.L("order"), "total"))),
					lang.SetF("cust", "deliveryCnt",
						lang.Add(lang.Fld(lang.L("cust"), "deliveryCnt"), lang.C(1))),
					lang.PutS(TCustomer, lang.Key(lang.P("wId"), lang.L("d"), lang.L("cId")), lang.L("cust")),
					lang.SetF("dist", "nextDeliveryOId", lang.Add(lang.L("delOId"), lang.C(1))),
					lang.PutS(TDistrict, lang.Key(lang.P("wId"), lang.L("d")), lang.L("dist")),
				),
			),
		},
	}
}

// OrderStatusProg builds the order-status read-only transaction: customer
// standing plus the district's most recent order.
func OrderStatusProg(cfg Config) *lang.Program {
	return &lang.Program{
		Name: "orderStatus",
		Params: []lang.Param{
			lang.IntParam("wId", 1, int64(cfg.Warehouses)),
			lang.IntParam("dId", 1, Districts),
			lang.IntParam("cId", 1, int64(cfg.CustomersPerDistrict)),
		},
		Body: []lang.Stmt{
			lang.GetS("cust", TCustomer, lang.P("wId"), lang.P("dId"), lang.P("cId")),
			lang.EmitS("balance", lang.Fld(lang.L("cust"), "balance")),
			lang.GetS("dist", TDistrict, lang.P("wId"), lang.P("dId")),
			lang.Set("lastOId", lang.Sub(lang.Fld(lang.L("dist"), "nextOId"), lang.C(1))),
			lang.IfS(lang.Ge(lang.L("lastOId"), lang.C(1)),
				lang.GetS("order", TOrder, lang.P("wId"), lang.P("dId"), lang.L("lastOId")),
				lang.EmitS("carrierId", lang.Fld(lang.L("order"), "carrierId")),
				lang.EmitS("total", lang.Fld(lang.L("order"), "total")),
			),
		},
	}
}

// StockLevelProg builds the stock-level read-only transaction: quantities of
// the stock behind the first line of each of the district's last 10 orders;
// the threshold count is computed on emitted (value-only) data, so the
// branch never forks the analysis.
func StockLevelProg(cfg Config) *lang.Program {
	return &lang.Program{
		Name: "stockLevel",
		Params: []lang.Param{
			lang.IntParam("wId", 1, int64(cfg.Warehouses)),
			lang.IntParam("dId", 1, Districts),
			lang.IntParam("threshold", 10, 20),
		},
		Body: []lang.Stmt{
			lang.GetS("dist", TDistrict, lang.P("wId"), lang.P("dId")),
			lang.Set("nextOId", lang.Fld(lang.L("dist"), "nextOId")),
			lang.Set("low", lang.C(0)),
			lang.ForS("k", lang.C(1), lang.C(11),
				lang.Set("oId", lang.Sub(lang.L("nextOId"), lang.L("k"))),
				lang.IfS(lang.Ge(lang.L("oId"), lang.C(1)),
					lang.GetS("ol", TOrderLine, lang.P("wId"), lang.P("dId"), lang.L("oId"), lang.C(0)),
					lang.GetS("stock", TStock, lang.P("wId"), lang.Fld(lang.L("ol"), "iId")),
					lang.IfS(lang.Lt(lang.Fld(lang.L("stock"), "quantity"), lang.P("threshold")),
						lang.Set("low", lang.Add(lang.L("low"), lang.C(1))),
					),
				),
			),
			lang.EmitS("lowStock", lang.L("low")),
		},
	}
}

// Programs returns all five TPC-C transactions for the given scale.
func Programs(cfg Config) []*lang.Program {
	return []*lang.Program{
		NewOrderProg(cfg), PaymentProg(cfg), DeliveryProg(cfg),
		OrderStatusProg(cfg), StockLevelProg(cfg),
	}
}

// UpdatePrograms returns the update transactions (Table I's rows).
func UpdatePrograms(cfg Config) []*lang.Program {
	return []*lang.Program{NewOrderProg(cfg), PaymentProg(cfg), DeliveryProg(cfg)}
}

// Generator produces the standard TPC-C transaction mix: 44% newOrder, 44%
// payment, 4% delivery, 4% orderStatus, 4% stockLevel (the paper's §IV-B
// mix), with NURand-skewed item and customer selection.
type Generator struct {
	cfg Config
	r   *rand.Rand
	// NURand C constants, fixed per generator as the spec requires.
	cItem, cCust int64
}

// NewGenerator returns a deterministic generator for the given seed.
func NewGenerator(cfg Config, seed int64) *Generator {
	r := rand.New(rand.NewSource(seed))
	return &Generator{cfg: cfg, r: r, cItem: r.Int63n(256), cCust: r.Int63n(1024)}
}

// nuRand implements the spec's non-uniform random distribution.
func (g *Generator) nuRand(a, c, x, y int64) int64 {
	return (((g.r.Int63n(a+1) | (x + g.r.Int63n(y-x+1))) + c) % (y - x + 1)) + x
}

func (g *Generator) itemID() int64 {
	return g.nuRand(8191, g.cItem, 1, int64(g.cfg.Items))
}

func (g *Generator) custID() int64 {
	return g.nuRand(1023, g.cCust, 1, int64(g.cfg.CustomersPerDistrict))
}

func (g *Generator) warehouse() int64 { return 1 + g.r.Int63n(int64(g.cfg.Warehouses)) }

// Next returns the next transaction name and inputs in the standard mix.
func (g *Generator) Next() (string, map[string]value.Value) {
	p := g.r.Intn(100)
	switch {
	case p < 44:
		return "newOrder", g.NewOrderInputs()
	case p < 88:
		return "payment", g.PaymentInputs()
	case p < 92:
		return "delivery", g.DeliveryInputs()
	case p < 96:
		return "orderStatus", g.OrderStatusInputs()
	default:
		return "stockLevel", g.StockLevelInputs()
	}
}

// NewOrderInputs draws spec-shaped newOrder inputs (1% of order lines come
// from a remote warehouse when there is more than one).
func (g *Generator) NewOrderInputs() map[string]value.Value {
	w := g.warehouse()
	olCnt := int64(g.cfg.OrderLinesMin) + g.r.Int63n(int64(g.cfg.OrderLinesMax-g.cfg.OrderLinesMin+1))
	ids := make([]value.Value, g.cfg.OrderLinesMax)
	sup := make([]value.Value, g.cfg.OrderLinesMax)
	qty := make([]value.Value, g.cfg.OrderLinesMax)
	for i := 0; i < g.cfg.OrderLinesMax; i++ {
		ids[i] = value.Int(g.itemID())
		sw := w
		if g.cfg.Warehouses > 1 && g.r.Intn(100) == 0 {
			for sw == w {
				sw = g.warehouse()
			}
		}
		sup[i] = value.Int(sw)
		qty[i] = value.Int(1 + g.r.Int63n(10))
	}
	return map[string]value.Value{
		"wId": value.Int(w), "dId": value.Int(1 + g.r.Int63n(Districts)),
		"cId": value.Int(g.custID()), "olCnt": value.Int(olCnt),
		"olIds": value.List(ids...), "olSupplyW": value.List(sup...),
		"olQty": value.List(qty...),
	}
}

// PaymentInputs draws spec-shaped payment inputs (15% remote customers when
// there is more than one warehouse).
func (g *Generator) PaymentInputs() map[string]value.Value {
	w := g.warehouse()
	cw := w
	if g.cfg.Warehouses > 1 && g.r.Intn(100) < 15 {
		for cw == w {
			cw = g.warehouse()
		}
	}
	return map[string]value.Value{
		"wId": value.Int(w), "dId": value.Int(1 + g.r.Int63n(Districts)),
		"cWId": value.Int(cw), "cDId": value.Int(1 + g.r.Int63n(Districts)),
		"cId": value.Int(g.custID()), "amount": value.Int(1 + g.r.Int63n(5000)),
	}
}

// DeliveryInputs draws delivery inputs.
func (g *Generator) DeliveryInputs() map[string]value.Value {
	return map[string]value.Value{
		"wId": value.Int(g.warehouse()), "carrierId": value.Int(1 + g.r.Int63n(10)),
	}
}

// OrderStatusInputs draws order-status inputs.
func (g *Generator) OrderStatusInputs() map[string]value.Value {
	return map[string]value.Value{
		"wId": value.Int(g.warehouse()), "dId": value.Int(1 + g.r.Int63n(Districts)),
		"cId": value.Int(g.custID()),
	}
}

// StockLevelInputs draws stock-level inputs.
func (g *Generator) StockLevelInputs() map[string]value.Value {
	return map[string]value.Value{
		"wId": value.Int(g.warehouse()), "dId": value.Int(1 + g.r.Int63n(Districts)),
		"threshold": value.Int(10 + g.r.Int63n(11)),
	}
}

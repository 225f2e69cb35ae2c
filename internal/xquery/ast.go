package xquery

// Expr is the interface of all AST nodes.
type Expr interface{ isExpr() }

// Query is a parsed query module: optional function declarations plus the
// body expression.
type Query struct {
	Functions map[string]*FuncDecl
	Body      Expr
}

// FuncDecl is a user function declaration:
// declare function local:name($a, $b) { body };
type FuncDecl struct {
	Name   string
	Params []string
	Body   Expr
}

// StringLit is a string literal.
type StringLit struct{ Val string }

// NumberLit is a numeric literal, always carried as float64 like XQuery's
// untyped arithmetic over xs:double.
type NumberLit struct{ Val float64 }

// VarRef references a bound variable.
type VarRef struct{ Name string }

// ContextItem is ".".
type ContextItem struct{}

// Root is the leading "/" of an absolute path, or document("...").
type Root struct{}

// Axis enumerates the navigation axes of the subset.
type Axis int

// Axes: child, descendant-or-self shorthand "//", attribute, and the
// text() node test.
const (
	AxisChild Axis = iota
	AxisDescendant
	AxisAttribute
	AxisText
)

// Step is one path step: an axis, a name test ("*" means any element), and
// optional predicates.
type Step struct {
	Axis  Axis
	Name  string // "" for text(); "*" for wildcard
	Preds []Expr
}

// Path is a sequence of steps applied to an input expression.
type Path struct {
	Input Expr // Root, VarRef, or any expression
	Steps []*Step
}

// Filter applies predicates to a primary expression (e.g. (expr)[3]).
type Filter struct {
	Input Expr
	Preds []Expr
}

// ForClause binds Var to each item of Seq; FLWOR clause.
type ForClause struct {
	Var string
	Seq Expr
}

// LetClause binds Var to the whole sequence Seq.
type LetClause struct {
	Var string
	Seq Expr
}

// Clause is a for or let clause; exactly one field is set.
type Clause struct {
	For *ForClause
	Let *LetClause
}

// OrderSpec is one "order by" key.
type OrderSpec struct {
	Key        Expr
	Descending bool
}

// FLWOR is the for/let/where/order by/return expression.
type FLWOR struct {
	Clauses []Clause
	Where   Expr // nil if absent
	Order   []OrderSpec
	Return  Expr
}

// Quantified is "some $v in expr satisfies expr" (every is not needed by
// the benchmark queries but supported for completeness).
type Quantified struct {
	Every     bool
	Vars      []string
	Seqs      []Expr
	Satisfies Expr
}

// IfExpr is if (cond) then a else b.
type IfExpr struct {
	Cond Expr
	Then Expr
	Else Expr
}

// BinOp enumerates binary operators.
type BinOp int

// Binary operators.
const (
	OpOr BinOp = iota
	OpAnd
	OpEq
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
	OpBefore // << document order
	OpAfter  // >>
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
)

var opNames = map[BinOp]string{
	OpOr: "or", OpAnd: "and", OpEq: "=", OpNeq: "!=", OpLt: "<", OpLe: "<=",
	OpGt: ">", OpGe: ">=", OpBefore: "<<", OpAfter: ">>", OpAdd: "+",
	OpSub: "-", OpMul: "*", OpDiv: "div", OpMod: "mod",
}

// String returns the surface syntax of the operator.
func (op BinOp) String() string { return opNames[op] }

// Binary applies op to left and right.
type Binary struct {
	Op    BinOp
	Left  Expr
	Right Expr
}

// Unary is numeric negation.
type Unary struct{ Operand Expr }

// Call invokes a built-in or user function.
type Call struct {
	Name string
	Args []Expr
}

// Sequence is the comma operator: concatenation of item sequences.
type Sequence struct{ Items []Expr }

// ElementCtor constructs a new element. Content pieces are either literal
// text (StringLit), nested constructors, or embedded expressions.
type ElementCtor struct {
	Tag     string
	Attrs   []AttrCtor
	Content []Expr
}

// AttrCtor constructs one attribute; the value concatenates literal parts
// and embedded expressions.
type AttrCtor struct {
	Name  string
	Parts []Expr
}

func (*StringLit) isExpr()   {}
func (*NumberLit) isExpr()   {}
func (*VarRef) isExpr()      {}
func (*ContextItem) isExpr() {}
func (*Root) isExpr()        {}
func (*Path) isExpr()        {}
func (*Filter) isExpr()      {}
func (*FLWOR) isExpr()       {}
func (*Quantified) isExpr()  {}
func (*IfExpr) isExpr()      {}
func (*Binary) isExpr()      {}
func (*Unary) isExpr()       {}
func (*Call) isExpr()        {}
func (*Sequence) isExpr()    {}
func (*ElementCtor) isExpr() {}

// UsesFocusCall conservatively reports whether evaluating e may call
// the named focus-dependent builtin (last, position) in the current focus:
// a syntactic walk that does not descend into nested predicates (their
// focus is their own) but treats a call of a function isUser names as
// potentially using it. The planner uses it to reject whole-sequence
// filters whose decisions depend on global ranks, and the parser to find
// positional predicates.
func UsesFocusCall(e Expr, isUser func(string) bool, name string) bool {
	found := false
	Walk(e, nil, func(e Expr, s *Scope) bool {
		// InPred first: a predicate's root may itself be the call.
		if found || s.InPred() {
			return false
		}
		// A user function body could consult the caller's focus; stay
		// conservative.
		if c, ok := e.(*Call); ok && (c.Name == name || isUser(c.Name)) {
			found = true
		}
		return !found
	})
	return found
}

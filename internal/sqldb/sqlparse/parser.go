package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// ParseError reports a syntax error with position context.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("sql: parse error at %d: %s", e.Pos, e.Msg)
}

// parseCalls counts Parse invocations. The prepared-plan layer memoizes
// parsing per distinct SQL text; tests assert the parse-once property by
// comparing ParseCalls deltas against the plan layer's miss counter.
var parseCalls atomic.Int64

// ParseCalls reports how many times Parse has run in this process.
func ParseCalls() int64 { return parseCalls.Load() }

// Parse parses a single SQL statement. A trailing semicolon is permitted.
func Parse(input string) (Statement, error) {
	parseCalls.Add(1)
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: input}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %s after statement", p.peek())
	}
	return st, nil
}

type parser struct {
	toks []token
	pos  int
	src  string
	// params counts `?` placeholders seen so far, assigning indexes.
	params int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Pos: p.peek().pos, Msg: fmt.Sprintf(format, args...)}
}

// acceptKeyword consumes the keyword if present.
func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == kw {
		p.next()
		return true
	}
	return false
}

// expectKeyword consumes the keyword or fails.
func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, found %s", kw, p.peek())
	}
	return nil
}

// acceptSymbol consumes the symbol if present.
func (p *parser) acceptSymbol(sym string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == sym {
		p.next()
		return true
	}
	return false
}

// expectSymbol consumes the symbol or fails.
func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errf("expected %q, found %s", sym, p.peek())
	}
	return nil
}

// expectIdent consumes and returns an identifier. Non-reserved use of
// keywords as identifiers is not supported.
func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, found %s", t)
	}
	p.next()
	return t.text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errf("expected statement keyword, found %s", t)
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreate()
	default:
		return nil, p.errf("unsupported statement %s", t)
	}
}

func (p *parser) parseSelect() (Statement, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	st := &SelectStmt{Limit: -1}
	st.Distinct = p.acceptKeyword("DISTINCT")

	for {
		se, err := p.parseSelectExpr()
		if err != nil {
			return nil, err
		}
		st.Cols = append(st.Cols, se)
		if !p.acceptSymbol(",") {
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	st.From = from

	for {
		kind := JoinInner
		switch {
		case p.acceptKeyword("JOIN"):
		case p.acceptKeyword("INNER"):
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		case p.acceptKeyword("LEFT"):
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = JoinLeft
		default:
			goto joinsDone
		}
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Joins = append(st.Joins, Join{Kind: kind, Table: tr, On: on})
	}
joinsDone:

	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			cr, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, *cr)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			st.OrderBy = append(st.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		st.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		st.Offset = n
	}
	return st, nil
}

func (p *parser) parseIntLiteral() (int, error) {
	t := p.peek()
	if t.kind != tokNumber {
		return 0, p.errf("expected integer, found %s", t)
	}
	p.next()
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errf("bad integer %q", t.text)
	}
	return n, nil
}

func (p *parser) parseSelectExpr() (SelectExpr, error) {
	// `*` or `ident.*`
	if p.peek().kind == tokSymbol && p.peek().text == "*" {
		p.next()
		return SelectExpr{Star: true}, nil
	}
	if p.peek().kind == tokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "." &&
		p.toks[p.pos+2].kind == tokSymbol && p.toks[p.pos+2].text == "*" {
		tbl := p.next().text
		p.next() // .
		p.next() // *
		return SelectExpr{Star: true, StarTable: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectExpr{}, err
	}
	se := SelectExpr{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectExpr{}, err
		}
		se.Alias = alias
	} else if p.peek().kind == tokIdent {
		se.Alias = p.next().text
	}
	return se, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Name: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		tr.Alias = alias
	} else if p.peek().kind == tokIdent {
		tr.Alias = p.next().text
	}
	return tr, nil
}

func (p *parser) parseColRef() (*ColRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	cr := &ColRef{Name: name}
	if p.acceptSymbol(".") {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		cr.Table = cr.Name
		cr.Name = col
	}
	return cr, nil
}

func (p *parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: table}
	if p.acceptSymbol("(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, col)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return st, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: table}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, Assignment{Col: col, Expr: e})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *parser) parseDelete() (Statement, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	unique := p.acceptKeyword("UNIQUE")
	switch {
	case p.acceptKeyword("TABLE"):
		if unique {
			return nil, p.errf("UNIQUE not valid before TABLE")
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		st := &CreateTableStmt{Name: name}
		for {
			// PRIMARY KEY (col) trailing clause
			if p.acceptKeyword("PRIMARY") {
				if err := p.expectKeyword("KEY"); err != nil {
					return nil, err
				}
				if err := p.expectSymbol("("); err != nil {
					return nil, err
				}
				col, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				found := false
				for i := range st.Cols {
					if strings.EqualFold(st.Cols[i].Name, col) {
						st.Cols[i].PrimaryKey = true
						found = true
					}
				}
				if !found {
					return nil, p.errf("PRIMARY KEY references unknown column %q", col)
				}
			} else {
				colName, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				typeTok := p.peek()
				var typeName string
				switch typeTok.kind {
				case tokIdent:
					typeName = p.next().text
				case tokKeyword: // e.g. none of our keywords are types, but be safe
					typeName = p.next().text
				default:
					return nil, p.errf("expected type name, found %s", typeTok)
				}
				// Swallow optional (length) on VARCHAR(50) etc.
				if p.acceptSymbol("(") {
					if _, err := p.parseIntLiteral(); err != nil {
						return nil, err
					}
					if err := p.expectSymbol(")"); err != nil {
						return nil, err
					}
				}
				typ, err := ParseTypeName(typeName)
				if err != nil {
					return nil, p.errf("%v", err)
				}
				def := ColumnDef{Name: colName, Type: typ}
				if p.acceptKeyword("PRIMARY") {
					if err := p.expectKeyword("KEY"); err != nil {
						return nil, err
					}
					def.PrimaryKey = true
				}
				st.Cols = append(st.Cols, def)
			}
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return st, nil
	case p.acceptKeyword("INDEX"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		table, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		cols := []string{col}
		for p.peek().kind == tokSymbol && p.peek().text == "," {
			// Errors name the comma that starts the rejected part.
			switch {
			case unique:
				return nil, p.errf("UNIQUE index takes one column, found %s", p.peek())
			case len(cols) == 2:
				return nil, p.errf("index takes at most two columns, found %s", p.peek())
			}
			p.next()
			if col, err = p.expectIdent(); err != nil {
				return nil, err
			}
			cols = append(cols, col)
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Name: name, Table: table, Cols: cols, Unique: unique}, nil
	default:
		return nil, p.errf("expected TABLE or INDEX after CREATE")
	}
}

// Expression grammar, precedence climbing:
//
//	or    := and (OR and)*
//	and   := not (AND not)*
//	not   := NOT not | cmp
//	cmp   := add ((=|<>|!=|<|<=|>|>=) add | IS [NOT] NULL | [NOT] IN (...) | [NOT] LIKE add | BETWEEN add AND add)?
//	add   := mul ((+|-) mul)*
//	mul   := prim ((*|/) prim)*
//	prim  := literal | ? | colref | func(...) | ( or ) | -prim
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Neg: false, Expr: e}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokSymbol {
		var op BinOp
		ok := true
		switch t.text {
		case "=":
			op = OpEq
		case "<>", "!=":
			op = OpNe
		case "<":
			op = OpLt
		case "<=":
			op = OpLe
		case ">":
			op = OpGt
		case ">=":
			op = OpGe
		default:
			ok = false
		}
		if ok {
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	if t.kind == tokKeyword {
		switch t.text {
		case "IS":
			p.next()
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			return &IsNullExpr{Expr: l, Not: not}, nil
		case "IN":
			p.next()
			return p.parseInTail(l, false)
		case "LIKE":
			p.next()
			pat, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &LikeExpr{Expr: l, Pattern: pat}, nil
		case "BETWEEN":
			p.next()
			lo, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &BetweenExpr{Expr: l, Lo: lo, Hi: hi}, nil
		case "NOT":
			// l NOT IN (...) / l NOT LIKE p
			if p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokKeyword {
				switch p.toks[p.pos+1].text {
				case "IN":
					p.next()
					p.next()
					return p.parseInTail(l, true)
				case "LIKE":
					p.next()
					p.next()
					pat, err := p.parseAdd()
					if err != nil {
						return nil, err
					}
					return &LikeExpr{Expr: l, Pattern: pat, Not: true}, nil
				}
			}
		}
	}
	return l, nil
}

func (p *parser) parseInTail(l Expr, not bool) (Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	in := &InList{Expr: l, Not: not}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		in.List = append(in.List, e)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol || (t.text != "+" && t.text != "-") {
			return l, nil
		}
		p.next()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		op := OpAdd
		if t.text == "-" {
			op = OpSub
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol || (t.text != "*" && t.text != "/") {
			return l, nil
		}
		p.next()
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		op := OpMul
		if t.text == "/" {
			op = OpDiv
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return &Literal{Value: f}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &Literal{Value: n}, nil
	case tokString:
		p.next()
		return &Literal{Value: t.text}, nil
	case tokParam:
		p.next()
		idx := p.params
		p.params++
		return &Param{Index: idx}, nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			p.next()
			return &Literal{Value: true}, nil
		case "FALSE":
			p.next()
			return &Literal{Value: false}, nil
		case "NULL":
			p.next()
			return &Literal{Value: nil}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.next()
			return p.parseFuncTail(t.text)
		}
		return nil, p.errf("unexpected %s in expression", t)
	case tokIdent:
		// function call or column reference
		if p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
			name := strings.ToUpper(p.next().text)
			return p.parseFuncTail(name)
		}
		return p.parseColRef()
	case tokSymbol:
		switch t.text {
		case "(":
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		case "-":
			p.next()
			e, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return &Unary{Neg: true, Expr: e}, nil
		}
	}
	return nil, p.errf("unexpected %s in expression", t)
}

func (p *parser) parseFuncTail(name string) (Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: name}
	if p.acceptSymbol("*") {
		fc.Star = true
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.acceptSymbol(")") {
		return fc, nil
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, e)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return fc, nil
}

package lazyc

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// The surface syntax, line-oriented C-like:
//
//	fn main() {
//	  let rows = R("SELECT id FROM t WHERE v = " + str(3));
//	  let i = 0;
//	  while (i < len(rows)) {
//	    print(col(row(rows, i), "id"));
//	    i = i + 1;
//	  }
//	  if (x > 2) { W("UPDATE t SET v = 1"); } else { skip; }
//	}

type ltoken struct {
	kind string // ident, num, str, punct, eof
	text string
	pos  int
}

func lexProgram(src string) ([]ltoken, error) {
	var toks []ltoken
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case unicode.IsLetter(rune(c)) || c == '_' || c == '@':
			start := i
			for i < len(src) && (unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i])) || src[i] == '_' || src[i] == '@') {
				i++
			}
			toks = append(toks, ltoken{"ident", src[start:i], start})
		case unicode.IsDigit(rune(c)):
			start := i
			for i < len(src) && unicode.IsDigit(rune(src[i])) {
				i++
			}
			toks = append(toks, ltoken{"num", src[start:i], start})
		case c == '"':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < len(src) {
				if src[i] == '\\' && i+1 < len(src) {
					switch src[i+1] {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					default:
						sb.WriteByte(src[i+1])
					}
					i += 2
					continue
				}
				if src[i] == '"' {
					i++
					closed = true
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("lazyc: unterminated string at %d", start)
			}
			toks = append(toks, ltoken{"str", sb.String(), start})
		default:
			start := i
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "==", "!=", "<=", ">=", "&&", "||":
				toks = append(toks, ltoken{"punct", two, start})
				i += 2
			default:
				if strings.ContainsRune("(){}[],;:.=<>!+-*", rune(c)) {
					toks = append(toks, ltoken{"punct", string(c), start})
					i++
				} else {
					return nil, fmt.Errorf("lazyc: unexpected character %q at %d", c, i)
				}
			}
		}
	}
	toks = append(toks, ltoken{"eof", "", len(src)})
	return toks, nil
}

type lparser struct {
	toks []ltoken
	pos  int
}

func (p *lparser) peek() ltoken { return p.toks[p.pos] }

func (p *lparser) next() ltoken {
	t := p.toks[p.pos]
	if t.kind != "eof" {
		p.pos++
	}
	return t
}

func (p *lparser) errf(format string, args ...any) error {
	return fmt.Errorf("lazyc: parse error at %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *lparser) accept(kind, text string) bool {
	t := p.peek()
	if t.kind == kind && t.text == text {
		p.next()
		return true
	}
	return false
}

func (p *lparser) expect(kind, text string) error {
	if !p.accept(kind, text) {
		return p.errf("expected %q, found %q", text, p.peek().text)
	}
	return nil
}

func (p *lparser) ident() (string, error) {
	t := p.peek()
	if t.kind != "ident" {
		return "", p.errf("expected identifier, found %q", t.text)
	}
	p.next()
	return t.text, nil
}

// ParseProgram parses a full program.
func ParseProgram(src string) (*Program, error) {
	toks, err := lexProgram(src)
	if err != nil {
		return nil, err
	}
	p := &lparser{toks: toks}
	prog := &Program{Funcs: make(map[string]*Func)}
	for p.peek().kind != "eof" {
		fn, err := p.parseFunc()
		if err != nil {
			return nil, err
		}
		if _, dup := prog.Funcs[fn.Name]; dup {
			return nil, fmt.Errorf("lazyc: duplicate function %q", fn.Name)
		}
		prog.Funcs[fn.Name] = fn
		prog.Order = append(prog.Order, fn.Name)
	}
	if _, err := prog.Main(); err != nil {
		return nil, err
	}
	return prog, nil
}

func (p *lparser) parseFunc() (*Func, error) {
	if err := p.expect("ident", "fn"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("punct", "("); err != nil {
		return nil, err
	}
	var params []string
	if !p.accept("punct", ")") {
		for {
			prm, err := p.ident()
			if err != nil {
				return nil, err
			}
			params = append(params, prm)
			if !p.accept("punct", ",") {
				break
			}
		}
		if err := p.expect("punct", ")"); err != nil {
			return nil, err
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &Func{Name: name, Params: params, Body: body}, nil
}

func (p *lparser) parseBlock() ([]Stmt, error) {
	if err := p.expect("punct", "{"); err != nil {
		return nil, err
	}
	var out []Stmt
	for !p.accept("punct", "}") {
		if p.peek().kind == "eof" {
			return nil, p.errf("unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (p *lparser) parseStmt() (Stmt, error) {
	t := p.peek()
	if t.kind == "ident" {
		switch t.text {
		case "skip":
			p.next()
			return &Skip{}, p.expect("punct", ";")
		case "let":
			p.next()
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expect("punct", "="); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &Let{Name: name, Init: e}, p.expect("punct", ";")
		case "if":
			p.next()
			if err := p.expect("punct", "("); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("punct", ")"); err != nil {
				return nil, err
			}
			then, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			var els []Stmt
			if p.accept("ident", "else") {
				if p.peek().kind == "ident" && p.peek().text == "if" {
					nested, err := p.parseStmt()
					if err != nil {
						return nil, err
					}
					els = []Stmt{nested}
				} else {
					els, err = p.parseBlock()
					if err != nil {
						return nil, err
					}
				}
			}
			return &If{Cond: cond, Then: then, Else: els}, nil
		case "while":
			p.next()
			if err := p.expect("punct", "("); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("punct", ")"); err != nil {
				return nil, err
			}
			body, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			return &While{Cond: cond, Body: body}, nil
		case "break":
			p.next()
			return &Break{}, p.expect("punct", ";")
		case "continue":
			p.next()
			return &Continue{}, p.expect("punct", ";")
		case "return":
			p.next()
			if p.accept("punct", ";") {
				return &Return{E: &Const{Val: nil}}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &Return{E: e}, p.expect("punct", ";")
		case "print":
			p.next()
			if err := p.expect("punct", "("); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("punct", ")"); err != nil {
				return nil, err
			}
			return &Print{E: e}, p.expect("punct", ";")
		case "W":
			p.next()
			if err := p.expect("punct", "("); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("punct", ")"); err != nil {
				return nil, err
			}
			return &Write{Query: e}, p.expect("punct", ";")
		}
	}
	// Assignment or expression statement.
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.accept("punct", "=") {
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("punct", ";"); err != nil {
			return nil, err
		}
		switch lhs := e.(type) {
		case *Var:
			return &AssignVar{Name: lhs.Name, E: rhs}, nil
		case *Field:
			return &AssignField{Recv: lhs.Recv, Name: lhs.Name, E: rhs}, nil
		case *Index:
			return &AssignIndex{Arr: lhs.Arr, Idx: lhs.Idx, E: rhs}, nil
		default:
			return nil, p.errf("invalid assignment target %T", e)
		}
	}
	return &ExprStmt{E: e}, p.expect("punct", ";")
}

// Expressions with precedence: || < && < cmp < add < mul < unary < postfix.
func (p *lparser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *lparser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("punct", "||") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binop{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *lparser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.accept("punct", "&&") {
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &Binop{Op: "&&", L: l, R: r}
	}
	return l, nil
}

func (p *lparser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"==", "!=", "<=", ">=", "<", ">"} {
		if p.accept("punct", op) {
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &Binop{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *lparser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("punct", "+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &Binop{Op: "+", L: l, R: r}
		case p.accept("punct", "-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &Binop{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *lparser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.accept("punct", "*") {
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binop{Op: "*", L: l, R: r}
	}
	return l, nil
}

func (p *lparser) parseUnary() (Expr, error) {
	if p.accept("punct", "!") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unop{Op: "!", E: e}, nil
	}
	if p.accept("punct", "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unop{Op: "-", E: e}, nil
	}
	return p.parsePostfix()
}

func (p *lparser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("punct", "."):
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			e = &Field{Recv: e, Name: name}
		case p.accept("punct", "["):
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("punct", "]"); err != nil {
				return nil, err
			}
			e = &Index{Arr: e, Idx: idx}
		default:
			return e, nil
		}
	}
}

var builtins = map[string]int{"len": 1, "str": 1, "row": 2, "col": 2}

func (p *lparser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case "num":
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &Const{Val: n}, nil
	case "str":
		p.next()
		return &Const{Val: t.text}, nil
	case "ident":
		switch t.text {
		case "true":
			p.next()
			return &Const{Val: true}, nil
		case "false":
			p.next()
			return &Const{Val: false}, nil
		case "null":
			p.next()
			return &Const{Val: nil}, nil
		case "R":
			p.next()
			if err := p.expect("punct", "("); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("punct", ")"); err != nil {
				return nil, err
			}
			return &Read{Query: e}, nil
		}
		name := p.next().text
		if p.accept("punct", "(") {
			var args []Expr
			if !p.accept("punct", ")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.accept("punct", ",") {
						break
					}
				}
				if err := p.expect("punct", ")"); err != nil {
					return nil, err
				}
			}
			if want, ok := builtins[name]; ok {
				if len(args) != want {
					return nil, p.errf("builtin %s expects %d args, got %d", name, want, len(args))
				}
				return &Builtin{Name: name, Args: args}, nil
			}
			return &Call{Fn: name, Args: args}, nil
		}
		return &Var{Name: name}, nil
	case "punct":
		switch t.text {
		case "(":
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return e, p.expect("punct", ")")
		case "{":
			p.next()
			rec := &RecordLit{}
			if !p.accept("punct", "}") {
				for {
					name, err := p.ident()
					if err != nil {
						return nil, err
					}
					if err := p.expect("punct", ":"); err != nil {
						return nil, err
					}
					v, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					rec.Names = append(rec.Names, name)
					rec.Vals = append(rec.Vals, v)
					if !p.accept("punct", ",") {
						break
					}
				}
				if err := p.expect("punct", "}"); err != nil {
					return nil, err
				}
			}
			return rec, nil
		case "[":
			p.next()
			arr := &ArrayLit{}
			if !p.accept("punct", "]") {
				for {
					v, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					arr.Elems = append(arr.Elems, v)
					if !p.accept("punct", ",") {
						break
					}
				}
				if err := p.expect("punct", "]"); err != nil {
					return nil, err
				}
			}
			return arr, nil
		}
	}
	return nil, p.errf("unexpected %q in expression", t.text)
}

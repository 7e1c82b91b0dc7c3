package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"shark/internal/row"
)

// Parse parses one SQL statement (an optional trailing semicolon is
// allowed).
func Parse(src string) (Statement, error) {
	tokens, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{tokens: tokens, src: src}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if !p.atEOF() {
		return nil, p.errf("unexpected input after statement: %q", p.peek().text)
	}
	return stmt, nil
}

// ParseExpr parses a standalone expression (used by tests and UDF
// tooling).
func ParseExpr(src string) (Expr, error) {
	tokens, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{tokens: tokens, src: src}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected input after expression")
	}
	return e, nil
}

type parser struct {
	tokens []token
	i      int
	src    string
	// nparams counts `?` placeholders in lexical order; each becomes a
	// ParamExpr with a zero-based index for Bind.
	nparams int
}

func (p *parser) peek() token { return p.tokens[p.i] }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

// next consumes and returns the current token; at end of input it
// returns the EOF token without advancing, so error paths can keep
// peeking safely.
func (p *parser) next() token {
	t := p.tokens[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (near offset %d)", fmt.Sprintf(format, args...), p.peek().pos)
}

// accept consumes the next token if it matches text (case-insensitive
// for words).
func (p *parser) accept(text string) bool {
	t := p.peek()
	if t.kind == tokEOF {
		return false
	}
	if (t.kind == tokIdent || t.kind == tokPunct) && strings.EqualFold(t.text, text) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errf("expected %q, found %q", text, p.peek().text)
	}
	return nil
}

// peekKeyword reports whether the next token is the given keyword.
func (p *parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

var reservedAfterTable = map[string]bool{
	"JOIN": true, "WHERE": true, "GROUP": true, "HAVING": true, "ORDER": true,
	"LIMIT": true, "ON": true, "AND": true, "OR": true, "DISTRIBUTE": true,
	"UNION": true, "INNER": true, "LEFT": true, "AS": true,
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.peekKeyword("SELECT"):
		return p.parseSelect()
	case p.peekKeyword("CREATE"):
		return p.parseCreate()
	case p.peekKeyword("DROP"):
		return p.parseDrop()
	case p.peekKeyword("EXPLAIN"):
		p.next()
		analyze := false
		if p.peekKeyword("ANALYZE") {
			p.next()
			analyze = true
		}
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Stmt: inner, Analyze: analyze}, nil
	}
	return nil, p.errf("expected SELECT, CREATE, DROP or EXPLAIN, found %q", p.peek().text)
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expect("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}

	// projection list
	for {
		if p.accept("*") {
			s.Items = append(s.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.accept("AS") {
				t := p.next()
				if t.kind != tokIdent {
					return nil, p.errf("expected alias after AS")
				}
				item.Alias = t.text
			} else if t := p.peek(); t.kind == tokIdent && !reservedSelectTail[t.upper()] {
				p.next()
				item.Alias = t.text
			}
			s.Items = append(s.Items, item)
		}
		if !p.accept(",") {
			break
		}
	}

	if p.accept("FROM") {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		s.From = ref
		for {
			if p.accept("JOIN") || (p.peekKeyword("INNER") && p.acceptSeq("INNER", "JOIN")) {
				jref, err := p.parseTableRef()
				if err != nil {
					return nil, err
				}
				if err := p.expect("ON"); err != nil {
					return nil, err
				}
				cond, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				s.Joins = append(s.Joins, JoinClause{Ref: jref, On: cond})
				continue
			}
			if p.accept(",") { // implicit cross join with WHERE equi-condition
				jref, err := p.parseTableRef()
				if err != nil {
					return nil, err
				}
				s.Joins = append(s.Joins, JoinClause{Ref: jref})
				continue
			}
			break
		}
	}

	if p.accept("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.peekKeyword("GROUP") {
		p.next()
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.accept("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	if p.peekKeyword("ORDER") {
		p.next()
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept("DESC") {
				item.Desc = true
			} else {
				p.accept("ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.accept("LIMIT") {
		t := p.next()
		switch {
		case t.kind == tokPunct && t.text == "?":
			s.LimitParam = &ParamExpr{Idx: p.nparams}
			p.nparams++
		case t.kind == tokNumber:
			n, err := strconv.ParseInt(t.text, 10, 64)
			if err != nil {
				return nil, p.errf("bad LIMIT: %v", err)
			}
			s.Limit = n
		default:
			return nil, p.errf("expected number or ? after LIMIT")
		}
	}
	if p.peekKeyword("DISTRIBUTE") {
		p.next()
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		t := p.next()
		if t.kind != tokIdent {
			return nil, p.errf("expected column after DISTRIBUTE BY")
		}
		s.DistributeBy = t.text
	}
	return s, nil
}

// reservedBare are keywords that may never appear as a bare column
// reference inside an expression.
var reservedBare = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "JOIN": true, "ON": true,
	"AS": true, "DISTRIBUTE": true, "INNER": true, "CREATE": true,
	"DROP": true, "TABLE": true, "UNION": true, "WHEN": true, "THEN": true,
	"ELSE": true, "END": true, "BETWEEN": true, "IN": true, "LIKE": true,
	"IS": true, "ASC": true, "DESC": true, "DISTINCT": true, "AND": true,
	"OR": true, "NOT": true,
}

var reservedSelectTail = map[string]bool{
	"FROM": true, "WHERE": true, "GROUP": true, "HAVING": true, "ORDER": true,
	"LIMIT": true, "AS": true, "JOIN": true, "ON": true, "DISTRIBUTE": true,
	"AND": true, "OR": true, "NOT": true, "BETWEEN": true, "IN": true,
	"LIKE": true, "IS": true, "ASC": true, "DESC": true, "END": true,
	"WHEN": true, "THEN": true, "ELSE": true,
}

func (p *parser) acceptSeq(words ...string) bool {
	save := p.i
	for _, w := range words {
		if !p.accept(w) {
			p.i = save
			return false
		}
	}
	return true
}

func (p *parser) parseTableRef() (*TableRef, error) {
	if p.accept("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		ref := &TableRef{Sub: sub}
		p.accept("AS")
		if t := p.peek(); t.kind == tokIdent && !reservedAfterTable[t.upper()] {
			p.next()
			ref.Alias = t.text
		}
		if ref.Alias == "" {
			return nil, p.errf("subquery requires an alias")
		}
		return ref, nil
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, p.errf("expected table name, found %q", t.text)
	}
	ref := &TableRef{Name: t.text}
	if p.accept("AS") {
		a := p.next()
		if a.kind != tokIdent {
			return nil, p.errf("expected alias after AS")
		}
		ref.Alias = a.text
	} else if a := p.peek(); a.kind == tokIdent && !reservedAfterTable[a.upper()] {
		p.next()
		ref.Alias = a.text
	}
	return ref, nil
}

func (p *parser) parseCreate() (Statement, error) {
	if err := p.expect("CREATE"); err != nil {
		return nil, err
	}
	p.accept("EXTERNAL") // tolerated, implied by LOCATION
	if err := p.expect("TABLE"); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{Props: map[string]string{}}
	if p.acceptSeq("IF", "NOT", "EXISTS") {
		stmt.IfNotExists = true
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, p.errf("expected table name")
	}
	stmt.Name = t.text

	// optional column list (external tables)
	if p.accept("(") {
		for {
			ct := p.next()
			if ct.kind != tokIdent {
				return nil, p.errf("expected column name")
			}
			ty := p.next()
			if ty.kind != tokIdent {
				return nil, p.errf("expected column type")
			}
			typ, err := row.ParseType(ty.text)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			stmt.Cols = append(stmt.Cols, ColumnDef{Name: ct.text, Type: typ})
			if p.accept(",") {
				continue
			}
			break
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}

	for {
		switch {
		case p.peekKeyword("TBLPROPERTIES"):
			p.next()
			if err := p.expect("("); err != nil {
				return nil, err
			}
			for {
				k := p.next()
				if k.kind != tokString {
					return nil, p.errf("expected string property key")
				}
				if err := p.expect("="); err != nil {
					return nil, err
				}
				v := p.next()
				if v.kind != tokString {
					return nil, p.errf("expected string property value")
				}
				stmt.Props[strings.ToLower(k.text)] = v.text
				if p.accept(",") {
					continue
				}
				break
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
		case p.peekKeyword("STORED"):
			p.next()
			if err := p.expect("AS"); err != nil {
				return nil, err
			}
			f := p.next()
			if f.kind != tokIdent {
				return nil, p.errf("expected format after STORED AS")
			}
			stmt.Format = strings.ToUpper(f.text)
		case p.peekKeyword("LOCATION"):
			p.next()
			loc := p.next()
			if loc.kind != tokString {
				return nil, p.errf("expected string after LOCATION")
			}
			stmt.Location = loc.text
		case p.peekKeyword("AS"):
			p.next()
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			stmt.As = sel
			return stmt, nil
		default:
			return stmt, nil
		}
	}
}

func (p *parser) parseDrop() (Statement, error) {
	if err := p.expect("DROP"); err != nil {
		return nil, err
	}
	if err := p.expect("TABLE"); err != nil {
		return nil, err
	}
	stmt := &DropTableStmt{}
	if p.acceptSeq("IF", "EXISTS") {
		stmt.IfExists = true
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, p.errf("expected table name")
	}
	stmt.Name = t.text
	return stmt, nil
}

// ---------------------------------------------------------------------------
// Expressions: precedence-climbing.
//
//	OR < AND < NOT < comparison/IN/LIKE/BETWEEN/IS < additive <
//	multiplicative < unary < primary

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for {
		// Don't consume the AND of "BETWEEN x AND y" — parseComparison
		// handles that before we get here.
		if !p.accept("AND") {
			return left, nil
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, L: left, R: right}
	}
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.parseComparison()
}

var cmpOps = map[string]BinaryOp{
	"=": OpEq, "<>": OpNe, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokPunct {
			if op, ok := cmpOps[t.text]; ok {
				p.next()
				right, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = &BinaryExpr{Op: op, L: left, R: right}
				continue
			}
		}
		not := false
		save := p.i
		if p.accept("NOT") {
			not = true
		}
		switch {
		case p.accept("BETWEEN"):
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expect("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &BetweenExpr{E: left, Lo: lo, Hi: hi, Not: not}
			continue
		case p.accept("IN"):
			if err := p.expect("("); err != nil {
				return nil, err
			}
			var list []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				list = append(list, e)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			left = &InExpr{E: left, List: list, Not: not}
			continue
		case p.accept("LIKE"):
			t := p.next()
			if t.kind != tokString {
				return nil, p.errf("expected pattern string after LIKE")
			}
			left = &LikeExpr{E: left, Pattern: t.text, Not: not}
			continue
		case p.accept("IS"):
			n := p.accept("NOT")
			if !p.accept("NULL") {
				return nil, p.errf("expected NULL after IS")
			}
			left = &IsNullExpr{E: left, Not: n || not}
			continue
		}
		if not {
			p.i = save // the NOT belonged to a boolean context above us
		}
		return left, nil
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: OpAdd, L: left, R: r}
		case p.accept("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: OpSub, L: left, R: r}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: OpMul, L: left, R: r}
		case p.accept("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: OpDiv, L: left, R: r}
		case p.accept("%"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: OpMod, L: left, R: r}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Literal); ok {
			switch v := lit.Value.(type) {
			case int64:
				return &Literal{Value: -v}, nil
			case float64:
				return &Literal{Value: -v}, nil
			}
		}
		return &NegExpr{E: e}, nil
	}
	p.accept("+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		if strings.ContainsAny(t.text, ".eE") {
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
		return &Literal{Value: t.text}, nil

	case tokPunct:
		if t.text == "(" {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.text == "?" {
			e := &ParamExpr{Idx: p.nparams}
			p.nparams++
			return e, nil
		}
		return nil, p.errf("unexpected %q", t.text)

	case tokIdent:
		up := strings.ToUpper(t.text)
		if reservedBare[up] {
			return nil, p.errf("unexpected keyword %q in expression", t.text)
		}
		switch up {
		case "NULL":
			return &Literal{Value: nil}, nil
		case "TRUE":
			return &Literal{Value: true}, nil
		case "FALSE":
			return &Literal{Value: false}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			return p.parseCast()
		case "DATE":
			// Date('2000-01-15') literal
			if p.accept("(") {
				s := p.next()
				if s.kind != tokString {
					return nil, p.errf("expected string in Date(...)")
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				d, err := row.ParseDate(s.text)
				if err != nil {
					return nil, p.errf("%v", err)
				}
				return &Literal{Value: d}, nil
			}
		}
		// function call?
		if p.accept("(") {
			fc := &FuncCall{Name: up}
			if p.accept("*") {
				fc.Star = true
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				return fc, nil
			}
			if p.accept("DISTINCT") {
				fc.Distinct = true
			}
			if !p.accept(")") {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, e)
					if !p.accept(",") {
						break
					}
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
			}
			return fc, nil
		}
		// qualified column?
		if p.accept(".") {
			c := p.next()
			if c.kind != tokIdent {
				return nil, p.errf("expected column after %q.", t.text)
			}
			return &ColRef{Table: t.text, Name: c.text}, nil
		}
		return &ColRef{Name: t.text}, nil
	}
	return nil, p.errf("unexpected end of input")
}

func (p *parser) parseCase() (Expr, error) {
	c := &CaseExpr{}
	for p.accept("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, WhenClause{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.accept("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expect("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) parseCast() (Expr, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect("AS"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, p.errf("expected type in CAST")
	}
	typ, err := row.ParseType(t.text)
	if err != nil {
		return nil, p.errf("%v", err)
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return &CastExpr{E: e, To: typ}, nil
}

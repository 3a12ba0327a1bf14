package query

import (
	"math"
	"strconv"
	"strings"

	"oostream/internal/event"
)

// Parse lexes and parses a full query text.
func Parse(src string) (*Query, error) {
	tokens, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{tokens: tokens}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

// ParseExpr parses a standalone expression (used by tests and tools).
func ParseExpr(src string) (Expr, error) {
	tokens, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{tokens: tokens}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokenEOF); err != nil {
		return nil, err
	}
	return e, nil
}

type parser struct {
	tokens []Token
	pos    int
}

func (p *parser) peek() Token { return p.tokens[p.pos] }

func (p *parser) advance() Token {
	tok := p.tokens[p.pos]
	if tok.Kind != TokenEOF {
		p.pos++
	}
	return tok
}

func (p *parser) accept(kind TokenKind) (Token, bool) {
	if p.peek().Kind == kind {
		return p.advance(), true
	}
	return Token{}, false
}

func (p *parser) expect(kind TokenKind) (Token, error) {
	tok := p.peek()
	if tok.Kind != kind {
		return Token{}, syntaxErrorf(tok.Pos, "expected %s, found %s %q", kind, tok.Kind, tok.Text)
	}
	return p.advance(), nil
}

// parseQuery := PATTERN SEQ(...) [WHERE expr] [WITHIN dur] [RETURN items]
//
//	| AGGREGATE fn(arg) OVER (SEQ(...) | Type var) [WHERE expr]
//	  WITHIN dur [SLIDE dur] [GROUP BY var.attr] [HAVING expr]
func (p *parser) parseQuery() (*Query, error) {
	if head, ok := p.accept(TokenAggregate); ok {
		return p.parseAggregateQuery(head)
	}
	if _, err := p.expect(TokenPattern); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokenSeq); err != nil {
		return nil, err
	}
	components, err := p.parseComponents()
	if err != nil {
		return nil, err
	}
	q := &Query{Components: components}

	if _, ok := p.accept(TokenWhere); ok {
		q.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if _, ok := p.accept(TokenWithin); ok {
		q.Within, err = p.parseDuration()
		if err != nil {
			return nil, err
		}
	}
	if _, ok := p.accept(TokenReturn); ok {
		q.Return, err = p.parseReturnItems()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokenEOF); err != nil {
		return nil, err
	}
	return q, nil
}

// parseAggregateQuery parses the AGGREGATE form after its head keyword. The
// OVER pattern is either a full SEQ(...) or the single-component sugar
// `Type var`; clause order is WHERE, WITHIN, SLIDE, GROUP BY, HAVING.
func (p *parser) parseAggregateQuery(head Token) (*Query, error) {
	agg := &AggClause{At: head.Pos}
	fn, err := p.expect(TokenIdent)
	if err != nil {
		return nil, err
	}
	switch f := AggFunc(strings.ToUpper(fn.Text)); f {
	case AggCount, AggSum, AggAvg, AggMin, AggMax:
		agg.Func = f
	default:
		return nil, syntaxErrorf(fn.Pos, "unknown aggregation function %q (want COUNT, SUM, AVG, MIN, or MAX)", fn.Text)
	}
	if _, err := p.expect(TokenLParen); err != nil {
		return nil, err
	}
	if _, ok := p.accept(TokenStar); !ok {
		agg.Arg, err = p.parseAttrRef()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokenRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokenOver); err != nil {
		return nil, err
	}
	q := &Query{Agg: agg}
	if _, ok := p.accept(TokenSeq); ok {
		q.Components, err = p.parseComponents()
		if err != nil {
			return nil, err
		}
	} else {
		typ, err := p.expect(TokenIdent)
		if err != nil {
			return nil, err
		}
		v, err := p.expect(TokenIdent)
		if err != nil {
			return nil, err
		}
		q.Components = []Component{{Type: typ.Text, Var: v.Text, Pos: typ.Pos}}
	}
	if _, ok := p.accept(TokenWhere); ok {
		q.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if _, ok := p.accept(TokenWithin); ok {
		q.Within, err = p.parseDuration()
		if err != nil {
			return nil, err
		}
	}
	if _, ok := p.accept(TokenSlide); ok {
		agg.Slide, err = p.parseDuration()
		if err != nil {
			return nil, err
		}
		if agg.Slide <= 0 {
			return nil, syntaxErrorf(head.Pos, "SLIDE must be positive")
		}
	}
	if _, ok := p.accept(TokenGroup); ok {
		if _, err := p.expect(TokenBy); err != nil {
			return nil, err
		}
		agg.GroupBy, err = p.parseAttrRef()
		if err != nil {
			return nil, err
		}
	}
	if _, ok := p.accept(TokenHaving); ok {
		agg.Having, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokenEOF); err != nil {
		return nil, err
	}
	return q, nil
}

// parseAttrRef parses a mandatory var.attr reference.
func (p *parser) parseAttrRef() (*AttrRef, error) {
	id, err := p.expect(TokenIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokenDot); err != nil {
		return nil, syntaxErrorf(id.Pos, "bare identifier %q; attribute references are written var.attr", id.Text)
	}
	attr, err := p.expect(TokenIdent)
	if err != nil {
		return nil, err
	}
	return &AttrRef{Var: id.Text, Attr: attr.Text, At: id.Pos}, nil
}

func (p *parser) parseComponents() ([]Component, error) {
	if _, err := p.expect(TokenLParen); err != nil {
		return nil, err
	}
	var components []Component
	for {
		c, err := p.parseComponent()
		if err != nil {
			return nil, err
		}
		components = append(components, c)
		if _, ok := p.accept(TokenComma); ok {
			continue
		}
		break
	}
	if _, err := p.expect(TokenRParen); err != nil {
		return nil, err
	}
	return components, nil
}

func (p *parser) parseComponent() (Component, error) {
	if bang, ok := p.accept(TokenBang); ok {
		if _, err := p.expect(TokenLParen); err != nil {
			return Component{}, err
		}
		typ, err := p.expect(TokenIdent)
		if err != nil {
			return Component{}, err
		}
		v, err := p.expect(TokenIdent)
		if err != nil {
			return Component{}, err
		}
		if _, err := p.expect(TokenRParen); err != nil {
			return Component{}, err
		}
		return Component{Type: typ.Text, Var: v.Text, Negated: true, Pos: bang.Pos}, nil
	}
	typ, err := p.expect(TokenIdent)
	if err != nil {
		return Component{}, err
	}
	v, err := p.expect(TokenIdent)
	if err != nil {
		return Component{}, err
	}
	return Component{Type: typ.Text, Var: v.Text, Pos: typ.Pos}, nil
}

// parseDuration := INT | DURATION (suffixed)
func (p *parser) parseDuration() (event.Time, error) {
	tok := p.peek()
	switch tok.Kind {
	case TokenInt:
		p.advance()
		n, err := strconv.ParseInt(tok.Text, 10, 64)
		if err != nil {
			return 0, syntaxErrorf(tok.Pos, "invalid duration %q: %v", tok.Text, err)
		}
		return n, nil
	case TokenDur:
		p.advance()
		return parseDurationLiteral(tok)
	default:
		return 0, syntaxErrorf(tok.Pos, "expected duration, found %s %q", tok.Kind, tok.Text)
	}
}

func parseDurationLiteral(tok Token) (event.Time, error) {
	text := tok.Text
	i := 0
	for i < len(text) && text[i] >= '0' && text[i] <= '9' {
		i++
	}
	n, err := strconv.ParseInt(text[:i], 10, 64)
	if err != nil {
		return 0, syntaxErrorf(tok.Pos, "invalid duration %q: %v", text, err)
	}
	unit, ok := durationUnits[strings.ToLower(text[i:])]
	if !ok {
		return 0, syntaxErrorf(tok.Pos, "invalid duration unit in %q", text)
	}
	if n > math.MaxInt64/unit {
		return 0, syntaxErrorf(tok.Pos, "duration %q overflows", text)
	}
	return n * unit, nil
}

func (p *parser) parseReturnItems() ([]ReturnItem, error) {
	var items []ReturnItem
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		name := ""
		if _, ok := p.accept(TokenAs); ok {
			id, err := p.expect(TokenIdent)
			if err != nil {
				return nil, err
			}
			name = id.Text
		} else if ref, ok := e.(*AttrRef); ok {
			name = ref.Var + "_" + ref.Attr
		} else {
			name = "col" + strconv.Itoa(len(items)+1)
		}
		items = append(items, ReturnItem{Expr: e, Name: name})
		if _, ok := p.accept(TokenComma); !ok {
			return items, nil
		}
	}
}

// Expression grammar (precedence climbing):
//
//	expr   := or
//	or     := and (OR and)*
//	and    := not (AND not)*
//	not    := NOT not | cmp
//	cmp    := add ((=|!=|<|<=|>|>=) add)?
//	add    := mul ((+|-) mul)*
//	mul    := unary ((*|/|%) unary)*
//	unary  := - unary | primary
//	primary:= literal | var.attr | ( expr )
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		tok, ok := p.accept(TokenOr)
		if !ok {
			return left, nil
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, Left: left, Right: right, At: tok.Pos}
	}
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for {
		tok, ok := p.accept(TokenAnd)
		if !ok {
			return left, nil
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, Left: left, Right: right, At: tok.Pos}
	}
}

func (p *parser) parseNot() (Expr, error) {
	if tok, ok := p.accept(TokenNot); ok {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Not: true, X: x, At: tok.Pos}, nil
	}
	return p.parseCmp()
}

var cmpOps = map[TokenKind]BinaryOp{
	TokenEq: OpEq, TokenNeq: OpNeq,
	TokenLt: OpLt, TokenLte: OpLte,
	TokenGt: OpGt, TokenGte: OpGte,
}

func (p *parser) parseCmp() (Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	op, ok := cmpOps[p.peek().Kind]
	if !ok {
		return left, nil
	}
	tok := p.advance()
	right, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	return &BinaryExpr{Op: op, Left: left, Right: right, At: tok.Pos}, nil
}

func (p *parser) parseAdd() (Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch p.peek().Kind {
		case TokenPlus:
			op = OpAdd
		case TokenMinus:
			op = OpSub
		default:
			return left, nil
		}
		tok := p.advance()
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right, At: tok.Pos}
	}
}

func (p *parser) parseMul() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch p.peek().Kind {
		case TokenStar:
			op = OpMul
		case TokenSlash:
			op = OpDiv
		case TokenPercent:
			op = OpMod
		default:
			return left, nil
		}
		tok := p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right, At: tok.Pos}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if tok, ok := p.accept(TokenMinus); ok {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Not: false, X: x, At: tok.Pos}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	tok := p.peek()
	switch tok.Kind {
	case TokenInt:
		p.advance()
		n, err := strconv.ParseInt(tok.Text, 10, 64)
		if err != nil {
			return nil, syntaxErrorf(tok.Pos, "invalid integer %q: %v", tok.Text, err)
		}
		return &Literal{Val: event.Int(n), At: tok.Pos}, nil
	case TokenFloat:
		p.advance()
		f, err := strconv.ParseFloat(tok.Text, 64)
		if err != nil {
			return nil, syntaxErrorf(tok.Pos, "invalid float %q: %v", tok.Text, err)
		}
		return &Literal{Val: event.Float(f), At: tok.Pos}, nil
	case TokenDur:
		p.advance()
		ms, err := parseDurationLiteral(tok)
		if err != nil {
			return nil, err
		}
		return &Literal{Val: event.Int(ms), At: tok.Pos}, nil
	case TokenString:
		p.advance()
		return &Literal{Val: event.Str(tok.Text), At: tok.Pos}, nil
	case TokenTrue:
		p.advance()
		return &Literal{Val: event.Bool(true), At: tok.Pos}, nil
	case TokenFalse:
		p.advance()
		return &Literal{Val: event.Bool(false), At: tok.Pos}, nil
	case TokenIdent:
		p.advance()
		if _, err := p.expect(TokenDot); err != nil {
			return nil, syntaxErrorf(tok.Pos, "bare identifier %q; attribute references are written var.attr", tok.Text)
		}
		attr, err := p.expect(TokenIdent)
		if err != nil {
			return nil, err
		}
		return &AttrRef{Var: tok.Text, Attr: attr.Text, At: tok.Pos}, nil
	case TokenLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokenRParen); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, syntaxErrorf(tok.Pos, "expected expression, found %s %q", tok.Kind, tok.Text)
	}
}

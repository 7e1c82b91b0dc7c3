package sqlparse

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // ( ) , . + - * / % = < > <= >= <> !=
)

type token struct {
	kind tokenKind
	text string // keywords/identifiers upper-cased in `upper`
	pos  int
}

func (t token) upper() string { return strings.ToUpper(t.text) }

// lexer tokenizes SQL text.
type lexer struct {
	src    string
	pos    int
	tokens []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.tokens = append(l.tokens, token{kind: tokEOF, pos: l.pos})
			return l.tokens, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(c):
			l.lexIdent(start)
		case c >= '0' && c <= '9':
			l.lexNumber(start)
		case c == '\'' || c == '"':
			if err := l.lexString(start, c); err != nil {
				return nil, err
			}
		default:
			if err := l.lexPunct(start); err != nil {
				return nil, err
			}
		}
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return
		}
	}
}

// isIdentStart reports whether byte c starts an identifier: an ASCII
// letter, '_', or any byte of a multi-byte UTF-8 sequence, so that an
// identifier is a run of whole characters — which Normalize's upper
// casing keeps an identifier.
func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c >= utf8.RuneSelf
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

func (l *lexer) lexIdent(start int) {
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	l.tokens = append(l.tokens, token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexNumber(start int) {
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c >= '0' && c <= '9':
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos+1 < len(l.src):
			next := l.src[l.pos+1]
			if next >= '0' && next <= '9' || next == '-' || next == '+' {
				seenExp = true
				l.pos += 2
				continue
			}
			goto done
		default:
			goto done
		}
	}
done:
	l.tokens = append(l.tokens, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexString(start int, quote byte) error {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
				b.WriteByte(quote) // doubled quote escape
				l.pos += 2
				continue
			}
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokString, text: b.String(), pos: start})
			return nil
		}
		if c == '\\' && l.pos+1 < len(l.src) {
			l.pos++
			switch l.src[l.pos] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				b.WriteByte(l.src[l.pos])
			}
			l.pos++
			continue
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sql: unterminated string at offset %d", start)
}

var twoCharPuncts = []string{"<=", ">=", "<>", "!="}

func (l *lexer) lexPunct(start int) error {
	if l.pos+1 < len(l.src) {
		two := l.src[l.pos : l.pos+2]
		for _, p := range twoCharPuncts {
			if two == p {
				l.pos += 2
				l.tokens = append(l.tokens, token{kind: tokPunct, text: two, pos: start})
				return nil
			}
		}
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '.', '+', '-', '*', '/', '%', '=', '<', '>', ';', '?':
		l.pos++
		l.tokens = append(l.tokens, token{kind: tokPunct, text: string(c), pos: start})
		return nil
	}
	return fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
}

// Package sqlparse implements the SQL front end of the reproduction's
// database engine: a hand-written lexer and recursive-descent parser for
// the SQL subset the Sloth applications issue (SELECT with joins,
// aggregates, ordering and limits; INSERT, UPDATE, DELETE; CREATE TABLE /
// CREATE INDEX). There is no transaction control: BEGIN, COMMIT and the
// rest are syntax errors.
package sqlparse

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokParam  // ?
	tokSymbol // punctuation and operators
)

// token is one lexical token with its source position (byte offset).
type token struct {
	kind tokenKind
	text string // keywords are upper-cased; identifiers keep original case
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// keywords is the set of reserved words recognized by the parser.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true,
	"SET": true, "DELETE": true, "CREATE": true, "TABLE": true, "INDEX": true,
	"PRIMARY": true, "KEY": true, "ON": true, "JOIN": true, "INNER": true,
	"LEFT": true, "OUTER": true, "ORDER": true, "BY": true, "GROUP": true,
	"ASC": true, "DESC": true, "LIMIT": true, "OFFSET": true, "AS": true,
	"IN": true, "IS": true, "NULL": true, "LIKE": true, "BETWEEN": true,
	"TRUE": true, "FALSE": true, "DISTINCT": true, "COUNT": true,
	"SUM": true, "AVG": true, "MIN": true, "MAX": true, "HAVING": true,
	"UNIQUE": true,
}

// lexError reports a lexical error with byte position context.
type lexError struct {
	pos int
	msg string
}

func (e *lexError) Error() string { return fmt.Sprintf("sql: lex error at %d: %s", e.pos, e.msg) }

// lex tokenizes the input. It returns the token stream or an error for
// unterminated strings / unexpected runes.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case isIdentStart(rune(c)):
			start := i
			for i < n && isIdentPart(rune(input[i])) {
				i++
			}
			word := input[start:i]
			upper := strings.ToUpper(word)
			if keywords[upper] {
				toks = append(toks, token{tokKeyword, upper, start})
			} else {
				toks = append(toks, token{tokIdent, word, start})
			}
		case c >= '0' && c <= '9':
			start := i
			for i < n && (input[i] >= '0' && input[i] <= '9') {
				i++
			}
			if i < n && input[i] == '.' {
				i++
				for i < n && (input[i] >= '0' && input[i] <= '9') {
					i++
				}
			}
			toks = append(toks, token{tokNumber, input[start:i], start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, &lexError{start, "unterminated string literal"}
			}
			toks = append(toks, token{tokString, sb.String(), start})
		case c == '?':
			toks = append(toks, token{tokParam, "?", i})
			i++
		case c == '<' || c == '>' || c == '!':
			start := i
			i++
			if i < n && (input[i] == '=' || (c == '<' && input[i] == '>')) {
				i++
			}
			toks = append(toks, token{tokSymbol, input[start:i], start})
		case strings.ContainsRune("=,()*.+-/;", rune(c)):
			toks = append(toks, token{tokSymbol, string(c), i})
			i++
		default:
			return nil, &lexError{i, fmt.Sprintf("unexpected character %q", c)}
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

// Identifiers are ASCII-only. The lexer walks bytes, so classifying a
// byte with the unicode tables would treat each byte of a multi-byte
// UTF-8 sequence (or a stray invalid byte) as its own Latin-1 letter:
// such "identifiers" survive parsing but break under the renderer's
// case normalization, producing SQL that no longer lexes. The dialect
// the applications issue is ASCII, so non-ASCII bytes are lex errors.
func isIdentStart(r rune) bool {
	return r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || (r >= '0' && r <= '9')
}

// Package rsql is the sqldf analogue: a SQL subset executed directly over
// rframe data frames. The paper's Anlys workload runs its analyses as SQL
// ("SQL queries are supported by the sqldf package. It converts the SQL
// queries into operations upon R data frames"). Supported:
//
//	SELECT expr [AS alias], ... | *
//	FROM table
//	[WHERE expr]
//	[GROUP BY col, ...]
//	[ORDER BY expr [ASC|DESC], ...]
//	[LIMIT n]
//
// with arithmetic, comparisons, AND/OR/NOT, the aggregates
// SUM/AVG/MIN/MAX/COUNT, and the scalar functions ABS/SQRT.
//
// Query binds a statement to its frame once, so it is valid or not whatever
// rows the frame holds (strings have comparisons and COUNT, nothing else),
// sorts ORDER BY's keys, not rows (rframe.Order: stable, NaN last, LIMIT k
// in O(n log k)), and evaluates the select list for the surviving rows
// only. ORDER BY names output columns; Int columns come out Float unless
// SELECT * names them; an unfiltered, unordered bare column shares storage
// with the source. QueryArrays (plan.go) runs on the same executor: it
// rewrites a statement into one query per chunk and one over their answers.
package rsql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind enumerates lexer token types.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp      // punctuation and operators
	tokKeyword // recognized SQL keyword, upper-cased in val
)

// token is one lexed unit.
type token struct {
	kind tokKind
	val  string
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "LIMIT": true, "AS": true, "AND": true, "OR": true,
	"NOT": true, "ASC": true, "DESC": true,
}

// lex tokenizes the input.
func lex(input string) ([]token, error) {
	n := len(input)
	toks := make([]token, 0, n/2+1) // tokens are mostly a word and a space
	i := 0
	for i < n {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case unicode.IsDigit(c) || (c == '.' && i+1 < n && unicode.IsDigit(rune(input[i+1]))):
			start := i
			seenDot, seenExp := false, false
			for i < n {
				ch := input[i]
				if ch >= '0' && ch <= '9' {
					i++
				} else if ch == '.' && !seenDot && !seenExp {
					seenDot = true
					i++
				} else if (ch == 'e' || ch == 'E') && !seenExp {
					seenExp = true
					i++
					if i < n && (input[i] == '+' || input[i] == '-') {
						i++
					}
				} else {
					break
				}
			}
			toks = append(toks, token{kind: tokNumber, val: input[start:i], pos: start})
		case unicode.IsLetter(c) || c == '_':
			start := i
			for i < n && (unicode.IsLetter(rune(input[i])) || unicode.IsDigit(rune(input[i])) || input[i] == '_') {
				i++
			}
			word := input[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, token{kind: tokKeyword, val: up, pos: start})
			} else {
				toks = append(toks, token{kind: tokIdent, val: word, pos: start})
			}
		case c == '\'':
			i++
			start := i
			for i < n && input[i] != '\'' {
				i++
			}
			if i >= n {
				return nil, fmt.Errorf("rsql: unterminated string at %d", start-1)
			}
			toks = append(toks, token{kind: tokString, val: input[start:i], pos: start})
			i++
		default:
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>", "!=":
				toks = append(toks, token{kind: tokOp, val: two, pos: i})
				i += 2
				continue
			}
			switch c {
			case ',', '(', ')', '*', '+', '-', '/', '<', '>', '=', '%':
				toks = append(toks, token{kind: tokOp, val: string(c), pos: i})
				i++
			default:
				return nil, fmt.Errorf("rsql: unexpected character %q at %d", c, i)
			}
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n})
	return toks, nil
}

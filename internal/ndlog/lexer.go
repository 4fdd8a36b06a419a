package ndlog

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer tokenizes NDlog source text. Comments run from "//" or "%%" to
// end of line and are skipped. C-style /* */ block comments are allowed.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src, line: 1, col: 1} }

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '%' && l.peek2() == '%':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			startLine, startCol := l.line, l.col
			l.advance()
			l.advance()
			for {
				if l.pos >= len(l.src) {
					return errf(startLine, startCol, "unterminated block comment")
				}
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

// Next returns the next token or an error.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Line: line, Col: col}, nil
	}
	c := l.peek()
	switch {
	case c == '(':
		l.advance()
		return Token{Kind: TokLParen, Line: line, Col: col}, nil
	case c == ')':
		l.advance()
		return Token{Kind: TokRParen, Line: line, Col: col}, nil
	case c == '[':
		l.advance()
		return Token{Kind: TokLBracket, Line: line, Col: col}, nil
	case c == ']':
		l.advance()
		return Token{Kind: TokRBracket, Line: line, Col: col}, nil
	case c == ',':
		l.advance()
		return Token{Kind: TokComma, Line: line, Col: col}, nil
	case c == '.':
		l.advance()
		return Token{Kind: TokPeriod, Line: line, Col: col}, nil
	case c == '@':
		l.advance()
		return Token{Kind: TokAt, Line: line, Col: col}, nil
	case c == '+':
		l.advance()
		return Token{Kind: TokPlus, Line: line, Col: col}, nil
	case c == '-':
		l.advance()
		return Token{Kind: TokMinus, Line: line, Col: col}, nil
	case c == '*':
		l.advance()
		return Token{Kind: TokStar, Line: line, Col: col}, nil
	case c == '/':
		l.advance()
		return Token{Kind: TokSlash, Line: line, Col: col}, nil
	case c == '%':
		l.advance()
		return Token{Kind: TokPercent, Line: line, Col: col}, nil
	case c == '_':
		l.advance()
		return Token{Kind: TokUnderscore, Line: line, Col: col}, nil
	case c == ':':
		l.advance()
		switch l.peek() {
		case '-':
			l.advance()
			return Token{Kind: TokDerive, Line: line, Col: col}, nil
		case '=':
			l.advance()
			return Token{Kind: TokAssign, Line: line, Col: col}, nil
		}
		return Token{}, errf(line, col, "unexpected ':'")
	case c == '?':
		l.advance()
		if l.peek() == '-' {
			l.advance()
			return Token{Kind: TokMaybe, Line: line, Col: col}, nil
		}
		return Token{}, errf(line, col, "unexpected '?'")
	case c == '<':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return Token{Kind: TokLE, Line: line, Col: col}, nil
		}
		return Token{Kind: TokLT, Line: line, Col: col}, nil
	case c == '>':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return Token{Kind: TokGE, Line: line, Col: col}, nil
		}
		return Token{Kind: TokGT, Line: line, Col: col}, nil
	case c == '=':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return Token{Kind: TokEQ, Line: line, Col: col}, nil
		}
		return Token{}, errf(line, col, "unexpected '=' (use == or :=)")
	case c == '!':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return Token{Kind: TokNE, Line: line, Col: col}, nil
		}
		return Token{}, errf(line, col, "unexpected '!'")
	case c == '"':
		return l.lexString(line, col, '"', TokString)
	case c == '\'':
		return l.lexString(line, col, '\'', TokAddr)
	case c >= '0' && c <= '9':
		return l.lexNumber(line, col)
	case isIdentStart(rune(c)):
		return l.lexIdent(line, col)
	}
	return Token{}, errf(line, col, "unexpected character %q", string(c))
}

// isIdentStart admits ASCII letters: a UTF-8 lead byte is no letter.
func isIdentStart(r rune) bool { return r < utf8.RuneSelf && unicode.IsLetter(r) }

func isIdentPart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func (l *Lexer) lexString(line, col int, quote byte, kind TokKind) (Token, error) {
	l.advance() // opening quote
	var b strings.Builder
	for {
		if l.pos >= len(l.src) {
			return Token{}, errf(line, col, "unterminated string")
		}
		cline, ccol := l.line, l.col
		c := l.advance()
		if c == quote {
			return Token{Kind: kind, Text: b.String(), Line: line, Col: col}, nil
		}
		if c == '\\' {
			if l.pos >= len(l.src) {
				return Token{}, errf(line, col, "unterminated escape")
			}
			e := l.advance()
			switch e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '\\', '"', '\'':
				b.WriteByte(e)
			default:
				return Token{}, errf(cline, ccol, "bad escape \\%c", e)
			}
			continue
		}
		b.WriteByte(c)
	}
}

func (l *Lexer) lexNumber(line, col int) (Token, error) {
	start := l.pos
	for l.pos < len(l.src) && l.peek() >= '0' && l.peek() <= '9' {
		l.advance()
	}
	kind := TokInt
	if l.pos < len(l.src) && l.peek() == '.' && l.peek2() >= '0' && l.peek2() <= '9' {
		kind = TokFloat
		l.advance()
		for l.pos < len(l.src) && l.peek() >= '0' && l.peek() <= '9' {
			l.advance()
		}
	}
	return Token{Kind: kind, Text: l.src[start:l.pos], Line: line, Col: col}, nil
}

func (l *Lexer) lexIdent(line, col int) (Token, error) {
	start := l.pos
	l.advance()
	for l.pos < len(l.src) && isIdentPart(l.peek()) {
		l.advance()
	}
	text := l.src[start:l.pos]
	kind := TokIdent
	r := rune(text[0])
	if unicode.IsUpper(r) {
		kind = TokVariable
	}
	return Token{Kind: kind, Text: text, Line: line, Col: col}, nil
}

// LexAll tokenizes the whole input (testing convenience).
func LexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}

#include "parser/parser.h"

#include <optional>

#include "common/source.h"
#include "common/strings.h"
#include "parser/lexer.h"

namespace gpml {

namespace {

/// Recursive-descent parser over the token stream. Keywords are matched
/// case-insensitively against identifier tokens, so they stay usable as
/// variable/property names in non-keyword positions.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<MatchStatement> ParseStatementAll();
  Result<GraphPattern> ParseGraphPatternAll();
  Result<ExprPtr> ParseExpressionAll();
  Result<std::vector<ReturnItem>> ParseColumnsAll();

 private:
  // --- token plumbing -----------------------------------------------------
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Peek(size_t ahead = 1) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool At(TokenKind k) const { return Cur().kind == k; }
  bool Eat(TokenKind k) {
    if (!At(k)) return false;
    Advance();
    return true;
  }
  Status Expect(TokenKind k, const char* context) {
    if (Eat(k)) return Status::OK();
    return Err(std::string("expected ") + TokenKindName(k) + " in " + context);
  }
  bool AtKeyword(const char* kw) const {
    return Cur().kind == TokenKind::kIdent &&
           EqualsIgnoreCase(Cur().text, kw);
  }
  bool EatKeyword(const char* kw) {
    if (!AtKeyword(kw)) return false;
    Advance();
    return true;
  }
  Status Err(const std::string& msg) const {
    return Status::SyntaxError(msg + " (offset=" +
                               std::to_string(Cur().offset) + ", at '" +
                               (Cur().kind == TokenKind::kEnd
                                    ? "<end>"
                                    : (Cur().text.empty()
                                           ? TokenKindName(Cur().kind)
                                           : Cur().text)) +
                               "')");
  }

  /// Enters one more level of nesting (see kMaxParseNesting); fails with
  /// a syntax error at the current token past the cap. The level is held
  /// until the enclosing NestingScope closes.
  Status Nest() {
    if (++depth_ <= kMaxParseNesting) return Status::OK();
    return Err("nesting deeper than " + std::to_string(kMaxParseNesting) +
               " levels");
  }

  /// Restores the nesting depth of the production it lives in on exit.
  class NestingScope {
   public:
    explicit NestingScope(Parser* parser)
        : parser_(parser), saved_(parser->depth_) {}
    ~NestingScope() { parser_->depth_ = saved_; }
    NestingScope(const NestingScope&) = delete;
    NestingScope& operator=(const NestingScope&) = delete;

   private:
    Parser* parser_;
    size_t saved_;
  };

  /// End offset of the most recently consumed token — the natural `end` for
  /// a span that began at an earlier token's `offset`.
  size_t PrevEnd() const { return pos_ > 0 ? tokens_[pos_ - 1].end() : 0; }
  /// Span from `begin` to the end of the last consumed token.
  SourceSpan SpanFrom(size_t begin) const { return {begin, PrevEnd()}; }

  /// In expression position `<-` means `<` followed by unary minus: splits
  /// the current kArrowLeft token into kLt (returned) and kMinus (kept).
  void SplitArrowLeft() {
    Token minus;
    minus.kind = TokenKind::kMinus;
    minus.offset = Cur().offset + 1;
    minus.length = 1;
    tokens_[pos_].kind = TokenKind::kLt;
    tokens_[pos_].length = 1;
    tokens_.insert(tokens_.begin() + static_cast<long>(pos_) + 1, minus);
  }

  // --- grammar ------------------------------------------------------------
  Result<GraphPattern> ParseGraphPatternBody();
  Result<PathPatternDecl> ParsePathDecl();
  std::optional<Selector> TryParseSelector();
  Restrictor TryParseRestrictor();
  Result<PathPatternPtr> ParsePathPattern();
  Result<PathPatternPtr> ParseConcat();
  Result<PathElement> ParseElement();
  Result<PathElement> ParseParenElement(TokenKind close);
  Result<NodePattern> ParseNodePattern();
  Result<EdgePattern> ParseEdgePattern();
  Result<EdgePattern> ParseEdgePatternInner();
  Status ParseSpec(std::string* var, LabelExprPtr* labels, ExprPtr* where);
  Result<LabelExprPtr> ParseLabelExpr();
  Result<LabelExprPtr> ParseLabelAnd();
  Result<LabelExprPtr> ParseLabelUnary();
  bool AtQuantifier() const;
  /// Returns min/max; for `?` sets is_question. `span` receives the byte
  /// range of the quantifier itself ({m,n}, *, + or ?).
  Status ParseQuantifier(uint64_t* min, std::optional<uint64_t>* max,
                         bool* is_question, SourceSpan* span);

  Result<ExprPtr> ParseExpr();
  Result<ExprPtr> ParseOr();
  Result<ExprPtr> ParseAnd();
  Result<ExprPtr> ParseNot();
  Result<ExprPtr> ParseComparison();
  Result<ExprPtr> ParseAdditive();
  Result<ExprPtr> ParseMultiplicative();
  Result<ExprPtr> ParseUnary();
  Result<ExprPtr> ParsePrimary();
  Result<ExprPtr> ParseCall(const std::string& name);

  Result<std::vector<ReturnItem>> ParseReturnItems();

  /// True when the current token can begin a path element.
  bool AtElementStart() const;
  /// True when current token begins an edge pattern.
  bool AtEdgeStart() const;

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t depth_ = 0;  // Open nesting levels (Nest).
};

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

Result<MatchStatement> Parser::ParseStatementAll() {
  MatchStatement stmt;
  GPML_ASSIGN_OR_RETURN(stmt.pattern, ParseGraphPatternBody());
  if (EatKeyword("RETURN")) {
    stmt.has_return = true;
    if (EatKeyword("DISTINCT")) stmt.return_distinct = true;
    GPML_ASSIGN_OR_RETURN(stmt.return_items, ParseReturnItems());
    // LIMIT n: cap the result table at n rows. Execution pushes the limit
    // into the cursor so matching can stop early (docs/api.md).
    if (EatKeyword("LIMIT")) {
      if (!At(TokenKind::kInt) || Cur().int_value < 0) {
        return Err("expected non-negative integer after LIMIT");
      }
      stmt.limit = static_cast<uint64_t>(Cur().int_value);
      Advance();
    }
  }
  Eat(TokenKind::kSemicolon);
  if (!At(TokenKind::kEnd)) return Err("unexpected trailing input");
  return stmt;
}

Result<GraphPattern> Parser::ParseGraphPatternAll() {
  GPML_ASSIGN_OR_RETURN(GraphPattern g, ParseGraphPatternBody());
  Eat(TokenKind::kSemicolon);
  if (!At(TokenKind::kEnd)) return Err("unexpected trailing input");
  return g;
}

Result<ExprPtr> Parser::ParseExpressionAll() {
  GPML_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
  if (!At(TokenKind::kEnd)) return Err("unexpected trailing input");
  return e;
}

Result<std::vector<ReturnItem>> Parser::ParseColumnsAll() {
  GPML_ASSIGN_OR_RETURN(std::vector<ReturnItem> items, ParseReturnItems());
  if (!At(TokenKind::kEnd)) return Err("unexpected trailing input");
  return items;
}

// ---------------------------------------------------------------------------
// Patterns
// ---------------------------------------------------------------------------

Result<GraphPattern> Parser::ParseGraphPatternBody() {
  if (!EatKeyword("MATCH")) return Err("expected MATCH");
  GraphPattern g;
  // Optional match mode (§7.1 Language Opportunity; published GQL syntax):
  // MATCH [REPEATABLE ELEMENTS | DIFFERENT EDGES | DIFFERENT NODES] ...
  if (AtKeyword("REPEATABLE")) {
    Advance();
    if (!EatKeyword("ELEMENTS")) {
      return Err("expected ELEMENTS after REPEATABLE");
    }
    g.mode = MatchMode::kRepeatableElements;
  } else if (AtKeyword("DIFFERENT")) {
    Advance();
    if (EatKeyword("EDGES")) {
      g.mode = MatchMode::kDifferentEdges;
    } else if (EatKeyword("NODES")) {
      g.mode = MatchMode::kDifferentNodes;
    } else {
      return Err("expected EDGES or NODES after DIFFERENT");
    }
  }
  while (true) {
    GPML_ASSIGN_OR_RETURN(PathPatternDecl decl, ParsePathDecl());
    g.paths.push_back(std::move(decl));
    if (!Eat(TokenKind::kComma)) break;
  }
  if (EatKeyword("WHERE")) {
    GPML_ASSIGN_OR_RETURN(g.where, ParseExpr());
  }
  return g;
}

Result<PathPatternDecl> Parser::ParsePathDecl() {
  PathPatternDecl decl;
  if (std::optional<Selector> sel = TryParseSelector(); sel.has_value()) {
    decl.selector = *sel;
  }
  decl.restrictor = TryParseRestrictor();
  // Path variable: IDENT '=' <pattern>.
  if (Cur().kind == TokenKind::kIdent && Peek().kind == TokenKind::kEq) {
    decl.path_var = Cur().text;
    Advance();
    Advance();
  }
  GPML_ASSIGN_OR_RETURN(decl.pattern, ParsePathPattern());
  return decl;
}

std::optional<Selector> Parser::TryParseSelector() {
  Selector s;
  if (AtKeyword("ANY")) {
    // ANY SHORTEST | ANY k | ANY — but bare "ANY" must not swallow a node
    // variable: it is followed by a pattern opener either way, so no
    // ambiguity (selectors precede the pattern).
    Advance();
    if (EatKeyword("SHORTEST")) {
      s.kind = Selector::Kind::kAnyShortest;
    } else if (At(TokenKind::kInt)) {
      s.kind = Selector::Kind::kAnyK;
      s.k = static_cast<int>(Cur().int_value);
      Advance();
    } else {
      s.kind = Selector::Kind::kAny;
    }
    return s;
  }
  if (AtKeyword("ALL") && EqualsIgnoreCase(Peek().text, "SHORTEST") &&
      Peek().kind == TokenKind::kIdent) {
    Advance();
    Advance();
    s.kind = Selector::Kind::kAllShortest;
    return s;
  }
  if (AtKeyword("SHORTEST") && Peek().kind == TokenKind::kInt) {
    Advance();
    s.k = static_cast<int>(Cur().int_value);
    Advance();
    if (EatKeyword("GROUP")) {
      s.kind = Selector::Kind::kShortestKGroup;
    } else {
      s.kind = Selector::Kind::kShortestK;
    }
    return s;
  }
  return std::nullopt;
}

Restrictor Parser::TryParseRestrictor() {
  if (EatKeyword("TRAIL")) return Restrictor::kTrail;
  if (EatKeyword("ACYCLIC")) return Restrictor::kAcyclic;
  if (EatKeyword("SIMPLE")) return Restrictor::kSimple;
  return Restrictor::kNone;
}

Result<PathPatternPtr> Parser::ParsePathPattern() {
  GPML_ASSIGN_OR_RETURN(PathPatternPtr first, ParseConcat());
  if (!At(TokenKind::kPipe) && !At(TokenKind::kPipePlusPipe)) return first;

  // A chain of unions/alternations. Mixed chains group left-to-right with
  // same-operator runs merged into one node.
  PathPatternPtr acc = first;
  while (At(TokenKind::kPipe) || At(TokenKind::kPipePlusPipe)) {
    bool multiset = At(TokenKind::kPipePlusPipe);
    TokenKind op = Cur().kind;
    std::vector<PathPatternPtr> alts;
    alts.push_back(acc);
    while (Eat(op)) {
      GPML_ASSIGN_OR_RETURN(PathPatternPtr next, ParseConcat());
      alts.push_back(std::move(next));
    }
    acc = multiset ? PathPattern::Alternation(std::move(alts))
                   : PathPattern::Union(std::move(alts));
  }
  return acc;
}

bool Parser::AtEdgeStart() const {
  switch (Cur().kind) {
    case TokenKind::kMinus:
    case TokenKind::kArrowLeft:
    case TokenKind::kArrowRight:
    case TokenKind::kTilde:
    case TokenKind::kLeftTilde:
    case TokenKind::kTildeRight:
    case TokenKind::kLeftRight:
      return true;
    default:
      return false;
  }
}

bool Parser::AtElementStart() const {
  return At(TokenKind::kLParen) || At(TokenKind::kLBracket) || AtEdgeStart();
}

Result<PathPatternPtr> Parser::ParseConcat() {
  std::vector<PathElement> elements;
  if (!AtElementStart()) return Err("expected a node, edge or path pattern");
  while (AtElementStart()) {
    GPML_ASSIGN_OR_RETURN(PathElement e, ParseElement());
    elements.push_back(std::move(e));
  }
  return PathPattern::Concat(std::move(elements));
}

Result<PathElement> Parser::ParseElement() {
  if (At(TokenKind::kLBracket)) {
    Advance();
    return ParseParenElement(TokenKind::kRBracket);
  }
  if (At(TokenKind::kLParen)) {
    // Disambiguate node pattern vs parenthesized path pattern: a
    // parenthesized path pattern starts with an element opener or a
    // restrictor keyword; a node pattern starts with ident/':'/WHERE/')'.
    const Token& nxt = Peek();
    bool paren_path =
        nxt.kind == TokenKind::kLParen || nxt.kind == TokenKind::kLBracket ||
        nxt.kind == TokenKind::kMinus || nxt.kind == TokenKind::kArrowLeft ||
        nxt.kind == TokenKind::kArrowRight || nxt.kind == TokenKind::kTilde ||
        nxt.kind == TokenKind::kLeftTilde ||
        nxt.kind == TokenKind::kTildeRight ||
        nxt.kind == TokenKind::kLeftRight;
    if (nxt.kind == TokenKind::kIdent &&
        (EqualsIgnoreCase(nxt.text, "TRAIL") ||
         EqualsIgnoreCase(nxt.text, "ACYCLIC") ||
         EqualsIgnoreCase(nxt.text, "SIMPLE")) &&
        Peek(2).kind != TokenKind::kRParen &&
        Peek(2).kind != TokenKind::kColon && Peek(2).kind != TokenKind::kEnd &&
        !(Peek(2).kind == TokenKind::kIdent &&
          EqualsIgnoreCase(Peek(2).text, "WHERE"))) {
      paren_path = true;
    }
    if (paren_path) {
      Advance();
      return ParseParenElement(TokenKind::kRParen);
    }
    GPML_ASSIGN_OR_RETURN(NodePattern n, ParseNodePattern());
    return PathElement::Node(std::move(n));
  }
  // Edge pattern, optionally quantified (bare-edge quantifier, §4.4).
  GPML_ASSIGN_OR_RETURN(EdgePattern e, ParseEdgePattern());
  if (AtQuantifier()) {
    uint64_t min = 0;
    std::optional<uint64_t> max;
    bool question = false;
    SourceSpan qspan;
    GPML_RETURN_IF_ERROR(ParseQuantifier(&min, &max, &question, &qspan));
    PathPatternPtr sub =
        PathPattern::Concat({PathElement::Edge(std::move(e))});
    if (question) {
      return PathElement::Optional(std::move(sub), Restrictor::kNone, nullptr,
                                   /*bare_edge=*/true);
    }
    PathElement q = PathElement::Quantified(
        std::move(sub), min, max, Restrictor::kNone, nullptr,
        /*bare_edge=*/true);
    q.quantifier_span = qspan;
    return q;
  }
  return PathElement::Edge(std::move(e));
}

Result<PathElement> Parser::ParseParenElement(TokenKind close) {
  NestingScope nesting(this);
  GPML_RETURN_IF_ERROR(Nest());
  Restrictor r = TryParseRestrictor();
  GPML_ASSIGN_OR_RETURN(PathPatternPtr sub, ParsePathPattern());
  ExprPtr where;
  if (EatKeyword("WHERE")) {
    GPML_ASSIGN_OR_RETURN(where, ParseExpr());
  }
  GPML_RETURN_IF_ERROR(Expect(close, "parenthesized path pattern"));
  if (AtQuantifier()) {
    uint64_t min = 0;
    std::optional<uint64_t> max;
    bool question = false;
    SourceSpan qspan;
    GPML_RETURN_IF_ERROR(ParseQuantifier(&min, &max, &question, &qspan));
    if (question) {
      return PathElement::Optional(std::move(sub), r, std::move(where),
                                   /*bare_edge=*/false);
    }
    PathElement q = PathElement::Quantified(std::move(sub), min, max, r,
                                            std::move(where),
                                            /*bare_edge=*/false);
    q.quantifier_span = qspan;
    return q;
  }
  return PathElement::Paren(std::move(sub), r, std::move(where));
}

Result<NodePattern> Parser::ParseNodePattern() {
  size_t begin = Cur().offset;
  GPML_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "node pattern"));
  NodePattern n;
  GPML_RETURN_IF_ERROR(ParseSpec(&n.var, &n.labels, &n.where));
  GPML_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "node pattern"));
  n.span = SpanFrom(begin);
  return n;
}

Result<EdgePattern> Parser::ParseEdgePattern() {
  size_t begin = Cur().offset;
  GPML_ASSIGN_OR_RETURN(EdgePattern e, ParseEdgePatternInner());
  e.span = SpanFrom(begin);
  return e;
}

Result<EdgePattern> Parser::ParseEdgePatternInner() {
  EdgePattern e;
  // Abbreviated forms (single token, no spec).
  if (At(TokenKind::kArrowRight)) {
    Advance();
    e.orientation = EdgeOrientation::kRight;
    return e;
  }
  if (At(TokenKind::kLeftRight)) {
    Advance();
    e.orientation = EdgeOrientation::kLeftOrRight;
    return e;
  }
  if (At(TokenKind::kTildeRight)) {
    Advance();
    e.orientation = EdgeOrientation::kUndirectedOrRight;
    return e;
  }

  // Bracketed or abbreviated-without-spec left prefixes.
  if (At(TokenKind::kArrowLeft)) {
    Advance();
    if (Eat(TokenKind::kLBracket)) {
      GPML_RETURN_IF_ERROR(ParseSpec(&e.var, &e.labels, &e.where));
      GPML_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "edge pattern"));
      if (Eat(TokenKind::kArrowRight)) {
        e.orientation = EdgeOrientation::kLeftOrRight;  // <-[ ]->
      } else if (Eat(TokenKind::kMinus)) {
        e.orientation = EdgeOrientation::kLeft;  // <-[ ]-
      } else {
        return Err("expected - or -> after ] in edge pattern");
      }
      return e;
    }
    e.orientation = EdgeOrientation::kLeft;  // abbreviation <-
    return e;
  }
  if (At(TokenKind::kLeftTilde)) {
    Advance();
    if (Eat(TokenKind::kLBracket)) {
      GPML_RETURN_IF_ERROR(ParseSpec(&e.var, &e.labels, &e.where));
      GPML_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "edge pattern"));
      if (Eat(TokenKind::kTilde)) {
        e.orientation = EdgeOrientation::kLeftOrUndirected;  // <~[ ]~
      } else {
        return Err("expected ~ after ] in edge pattern");
      }
      return e;
    }
    e.orientation = EdgeOrientation::kLeftOrUndirected;  // abbreviation <~
    return e;
  }
  if (At(TokenKind::kTilde)) {
    Advance();
    if (Eat(TokenKind::kLBracket)) {
      GPML_RETURN_IF_ERROR(ParseSpec(&e.var, &e.labels, &e.where));
      GPML_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "edge pattern"));
      if (Eat(TokenKind::kTildeRight)) {
        e.orientation = EdgeOrientation::kUndirectedOrRight;  // ~[ ]~>
      } else if (Eat(TokenKind::kTilde)) {
        e.orientation = EdgeOrientation::kUndirected;  // ~[ ]~
      } else {
        return Err("expected ~ or ~> after ] in edge pattern");
      }
      return e;
    }
    e.orientation = EdgeOrientation::kUndirected;  // abbreviation ~
    return e;
  }
  if (At(TokenKind::kMinus)) {
    Advance();
    if (Eat(TokenKind::kLBracket)) {
      GPML_RETURN_IF_ERROR(ParseSpec(&e.var, &e.labels, &e.where));
      GPML_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "edge pattern"));
      if (Eat(TokenKind::kArrowRight)) {
        e.orientation = EdgeOrientation::kRight;  // -[ ]->
      } else if (Eat(TokenKind::kMinus)) {
        e.orientation = EdgeOrientation::kAny;  // -[ ]-
      } else {
        return Err("expected - or -> after ] in edge pattern");
      }
      return e;
    }
    e.orientation = EdgeOrientation::kAny;  // abbreviation -
    return e;
  }
  return Err("expected edge pattern");
}

Status Parser::ParseSpec(std::string* var, LabelExprPtr* labels,
                         ExprPtr* where) {
  if (Cur().kind == TokenKind::kIdent && !AtKeyword("WHERE")) {
    *var = Cur().text;
    Advance();
  }
  if (Eat(TokenKind::kColon)) {
    GPML_ASSIGN_OR_RETURN(*labels, ParseLabelExpr());
  }
  if (EatKeyword("WHERE")) {
    GPML_ASSIGN_OR_RETURN(*where, ParseExpr());
  }
  return Status::OK();
}

Result<LabelExprPtr> Parser::ParseLabelExpr() {
  NestingScope nesting(this);
  GPML_ASSIGN_OR_RETURN(LabelExprPtr left, ParseLabelAnd());
  while (At(TokenKind::kPipe)) {
    // `(x:A|B)` label disjunction; inside a node/edge spec `|` cannot be a
    // path union, so this is unambiguous. Each one deepens the left-deep
    // tree.
    GPML_RETURN_IF_ERROR(Nest());
    Advance();
    GPML_ASSIGN_OR_RETURN(LabelExprPtr right, ParseLabelAnd());
    left = LabelExpr::Or(std::move(left), std::move(right));
  }
  return left;
}

Result<LabelExprPtr> Parser::ParseLabelAnd() {
  NestingScope nesting(this);
  GPML_ASSIGN_OR_RETURN(LabelExprPtr left, ParseLabelUnary());
  while (At(TokenKind::kAmp)) {
    GPML_RETURN_IF_ERROR(Nest());
    Advance();
    GPML_ASSIGN_OR_RETURN(LabelExprPtr right, ParseLabelUnary());
    left = LabelExpr::And(std::move(left), std::move(right));
  }
  return left;
}

Result<LabelExprPtr> Parser::ParseLabelUnary() {
  NestingScope nesting(this);
  if (At(TokenKind::kBang)) {
    GPML_RETURN_IF_ERROR(Nest());
    Advance();
    GPML_ASSIGN_OR_RETURN(LabelExprPtr sub, ParseLabelUnary());
    return LabelExpr::Not(std::move(sub));
  }
  if (Eat(TokenKind::kPercent)) return LabelExpr::Wildcard();
  if (At(TokenKind::kLParen)) {
    GPML_RETURN_IF_ERROR(Nest());
    Advance();
    GPML_ASSIGN_OR_RETURN(LabelExprPtr sub, ParseLabelExpr());
    GPML_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "label expression"));
    return sub;
  }
  if (Cur().kind == TokenKind::kIdent) {
    LabelExprPtr name = LabelExpr::Name(Cur().text);
    Advance();
    return name;
  }
  return Err("expected label expression");
}

bool Parser::AtQuantifier() const {
  return At(TokenKind::kStar) || At(TokenKind::kPlus) ||
         At(TokenKind::kQuestion) || At(TokenKind::kLBrace);
}

Status Parser::ParseQuantifier(uint64_t* min, std::optional<uint64_t>* max,
                               bool* is_question, SourceSpan* span) {
  size_t begin = Cur().offset;
  *is_question = false;
  if (Eat(TokenKind::kStar)) {
    *min = 0;
    *max = std::nullopt;
    *span = SpanFrom(begin);
    return Status::OK();
  }
  if (Eat(TokenKind::kPlus)) {
    *min = 1;
    *max = std::nullopt;
    *span = SpanFrom(begin);
    return Status::OK();
  }
  if (Eat(TokenKind::kQuestion)) {
    *is_question = true;
    *min = 0;
    *max = 1;
    *span = SpanFrom(begin);
    return Status::OK();
  }
  GPML_RETURN_IF_ERROR(Expect(TokenKind::kLBrace, "quantifier"));
  if (!At(TokenKind::kInt)) return Err("expected integer in quantifier");
  *min = static_cast<uint64_t>(Cur().int_value);
  Advance();
  if (Eat(TokenKind::kComma)) {
    if (At(TokenKind::kInt)) {
      *max = static_cast<uint64_t>(Cur().int_value);
      Advance();
    } else {
      *max = std::nullopt;  // {m,}
    }
  } else {
    *max = *min;  // {m} — convenience extension, equivalent to {m,m}.
  }
  GPML_RETURN_IF_ERROR(Expect(TokenKind::kRBrace, "quantifier"));
  *span = SpanFrom(begin);
  if (max->has_value() && **max < *min) {
    return Status::SyntaxError("quantifier upper bound below lower bound"
                               " (offset=" + std::to_string(begin) + ")");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Result<ExprPtr> Parser::ParseExpr() { return ParseOr(); }

Result<ExprPtr> Parser::ParseOr() {
  NestingScope nesting(this);
  size_t begin = Cur().offset;
  GPML_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
  while (AtKeyword("OR")) {
    GPML_RETURN_IF_ERROR(Nest());
    Advance();
    GPML_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
    left = Expr::WithSpan(
        Expr::Binary(BinaryOp::kOr, std::move(left), std::move(right)),
        SpanFrom(begin));
  }
  return left;
}

Result<ExprPtr> Parser::ParseAnd() {
  NestingScope nesting(this);
  size_t begin = Cur().offset;
  GPML_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
  while (AtKeyword("AND")) {
    GPML_RETURN_IF_ERROR(Nest());
    Advance();
    GPML_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
    left = Expr::WithSpan(
        Expr::Binary(BinaryOp::kAnd, std::move(left), std::move(right)),
        SpanFrom(begin));
  }
  return left;
}

Result<ExprPtr> Parser::ParseNot() {
  NestingScope nesting(this);
  size_t begin = Cur().offset;
  if (AtKeyword("NOT")) {
    GPML_RETURN_IF_ERROR(Nest());
    Advance();
    GPML_ASSIGN_OR_RETURN(ExprPtr sub, ParseNot());
    return Expr::WithSpan(Expr::Not(std::move(sub)), SpanFrom(begin));
  }
  return ParseComparison();
}

Result<ExprPtr> Parser::ParseComparison() {
  size_t begin = Cur().offset;
  GPML_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());

  // IS forms: IS [NOT] NULL, IS DIRECTED, IS SOURCE OF e, IS DESTINATION OF.
  if (AtKeyword("IS")) {
    Advance();
    bool negated = EatKeyword("NOT");
    if (EatKeyword("NULL")) {
      return Expr::WithSpan(Expr::IsNull(std::move(left), negated),
                            SpanFrom(begin));
    }
    if (negated) return Err("expected NULL after IS NOT");
    if (EatKeyword("DIRECTED")) {
      if (left->kind != Expr::Kind::kVarRef) {
        return Err("IS DIRECTED applies to a variable");
      }
      return Expr::WithSpan(Expr::IsDirected(left->var), SpanFrom(begin));
    }
    bool source = false;
    if (EatKeyword("SOURCE")) {
      source = true;
    } else if (!EatKeyword("DESTINATION")) {
      return Err("expected NULL, DIRECTED, SOURCE or DESTINATION after IS");
    }
    if (!EatKeyword("OF")) return Err("expected OF");
    if (Cur().kind != TokenKind::kIdent) return Err("expected edge variable");
    std::string edge_var = Cur().text;
    Advance();
    if (left->kind != Expr::Kind::kVarRef) {
      return Err("IS SOURCE/DESTINATION OF applies to a variable");
    }
    return Expr::WithSpan(source ? Expr::IsSourceOf(left->var, edge_var)
                                 : Expr::IsDestinationOf(left->var, edge_var),
                          SpanFrom(begin));
  }

  BinaryOp op;
  if (At(TokenKind::kArrowLeft)) SplitArrowLeft();  // x <-1 means x < -1
  switch (Cur().kind) {
    case TokenKind::kEq: op = BinaryOp::kEq; break;
    case TokenKind::kNeq: op = BinaryOp::kNeq; break;
    case TokenKind::kLt: op = BinaryOp::kLt; break;
    case TokenKind::kLe: op = BinaryOp::kLe; break;
    case TokenKind::kGt: op = BinaryOp::kGt; break;
    case TokenKind::kGe: op = BinaryOp::kGe; break;
    default: return left;
  }
  Advance();
  GPML_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
  return Expr::WithSpan(Expr::Binary(op, std::move(left), std::move(right)),
                        SpanFrom(begin));
}

Result<ExprPtr> Parser::ParseAdditive() {
  NestingScope nesting(this);
  size_t begin = Cur().offset;
  GPML_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
  while (At(TokenKind::kPlus) || At(TokenKind::kMinus)) {
    BinaryOp op = At(TokenKind::kPlus) ? BinaryOp::kAdd : BinaryOp::kSub;
    GPML_RETURN_IF_ERROR(Nest());
    Advance();
    GPML_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
    left = Expr::WithSpan(
        Expr::Binary(op, std::move(left), std::move(right)), SpanFrom(begin));
  }
  return left;
}

Result<ExprPtr> Parser::ParseMultiplicative() {
  NestingScope nesting(this);
  size_t begin = Cur().offset;
  GPML_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
  while (At(TokenKind::kStar) || At(TokenKind::kSlash)) {
    BinaryOp op = At(TokenKind::kStar) ? BinaryOp::kMul : BinaryOp::kDiv;
    GPML_RETURN_IF_ERROR(Nest());
    Advance();
    GPML_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
    left = Expr::WithSpan(
        Expr::Binary(op, std::move(left), std::move(right)), SpanFrom(begin));
  }
  return left;
}

Result<ExprPtr> Parser::ParseUnary() {
  NestingScope nesting(this);
  size_t begin = Cur().offset;
  if (At(TokenKind::kMinus)) {
    GPML_RETURN_IF_ERROR(Nest());
    Advance();
    GPML_ASSIGN_OR_RETURN(ExprPtr sub, ParseUnary());
    return Expr::WithSpan(Expr::Binary(BinaryOp::kSub,
                                       Expr::Lit(Value::Int(0)),
                                       std::move(sub)),
                          SpanFrom(begin));
  }
  return ParsePrimary();
}

Result<ExprPtr> Parser::ParsePrimary() {
  size_t begin = Cur().offset;
  switch (Cur().kind) {
    case TokenKind::kInt: {
      ExprPtr e = Expr::Lit(Value::Int(Cur().int_value));
      Advance();
      return Expr::WithSpan(std::move(e), SpanFrom(begin));
    }
    case TokenKind::kDouble: {
      ExprPtr e = Expr::Lit(Value::Double(Cur().double_value));
      Advance();
      return Expr::WithSpan(std::move(e), SpanFrom(begin));
    }
    case TokenKind::kString: {
      ExprPtr e = Expr::Lit(Value::String(Cur().string_value));
      Advance();
      return Expr::WithSpan(std::move(e), SpanFrom(begin));
    }
    case TokenKind::kParam: {
      ExprPtr e = Expr::Param(Cur().text);
      Advance();
      return Expr::WithSpan(std::move(e), SpanFrom(begin));
    }
    case TokenKind::kLParen: {
      NestingScope nesting(this);
      GPML_RETURN_IF_ERROR(Nest());
      Advance();
      GPML_ASSIGN_OR_RETURN(ExprPtr sub, ParseExpr());
      GPML_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "expression"));
      return sub;
    }
    case TokenKind::kIdent: {
      if (EatKeyword("TRUE")) {
        return Expr::WithSpan(Expr::Lit(Value::Bool(true)), SpanFrom(begin));
      }
      if (EatKeyword("FALSE")) {
        return Expr::WithSpan(Expr::Lit(Value::Bool(false)), SpanFrom(begin));
      }
      if (EatKeyword("NULL")) {
        return Expr::WithSpan(Expr::Lit(Value::Null()), SpanFrom(begin));
      }
      std::string name = Cur().text;
      Advance();
      if (At(TokenKind::kLParen)) {
        GPML_ASSIGN_OR_RETURN(ExprPtr call, ParseCall(name));
        return Expr::WithSpan(std::move(call), SpanFrom(begin));
      }
      if (Eat(TokenKind::kDot)) {
        if (Eat(TokenKind::kStar)) {
          return Expr::WithSpan(Expr::Prop(name, "*"), SpanFrom(begin));
        }
        if (Cur().kind != TokenKind::kIdent) {
          return Err("expected property name after '.'");
        }
        std::string prop = Cur().text;
        Advance();
        return Expr::WithSpan(Expr::Prop(name, prop), SpanFrom(begin));
      }
      return Expr::WithSpan(Expr::Var(name), SpanFrom(begin));
    }
    default:
      return Err("expected expression");
  }
}

Result<ExprPtr> Parser::ParseCall(const std::string& name) {
  NestingScope nesting(this);
  GPML_RETURN_IF_ERROR(Nest());
  GPML_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "function call"));

  auto parse_var_list = [&]() -> Result<std::vector<std::string>> {
    std::vector<std::string> vars;
    while (true) {
      if (Cur().kind != TokenKind::kIdent) {
        return Err("expected variable name");
      }
      vars.push_back(Cur().text);
      Advance();
      if (!Eat(TokenKind::kComma)) break;
    }
    GPML_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "variable list"));
    return vars;
  };

  if (EqualsIgnoreCase(name, "SAME")) {
    GPML_ASSIGN_OR_RETURN(std::vector<std::string> vars, parse_var_list());
    return Expr::Same(std::move(vars));
  }
  if (EqualsIgnoreCase(name, "ALL_DIFFERENT")) {
    GPML_ASSIGN_OR_RETURN(std::vector<std::string> vars, parse_var_list());
    return Expr::AllDifferent(std::move(vars));
  }
  if (EqualsIgnoreCase(name, "PATH_LENGTH")) {
    if (Cur().kind != TokenKind::kIdent) return Err("expected path variable");
    std::string var = Cur().text;
    Advance();
    GPML_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "PATH_LENGTH"));
    return Expr::PathLength(std::move(var));
  }

  AggFunc agg;
  if (EqualsIgnoreCase(name, "COUNT")) {
    agg = AggFunc::kCount;
  } else if (EqualsIgnoreCase(name, "SUM")) {
    agg = AggFunc::kSum;
  } else if (EqualsIgnoreCase(name, "AVG")) {
    agg = AggFunc::kAvg;
  } else if (EqualsIgnoreCase(name, "MIN")) {
    agg = AggFunc::kMin;
  } else if (EqualsIgnoreCase(name, "MAX")) {
    agg = AggFunc::kMax;
  } else if (EqualsIgnoreCase(name, "LISTAGG")) {
    agg = AggFunc::kListAgg;
  } else {
    return Err("unknown function " + name);
  }

  bool distinct = EatKeyword("DISTINCT");
  GPML_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
  std::string separator;
  if (agg == AggFunc::kListAgg && Eat(TokenKind::kComma)) {
    if (Cur().kind != TokenKind::kString) {
      return Err("expected string separator in LISTAGG");
    }
    separator = Cur().string_value;
    Advance();
  }
  GPML_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "aggregate"));
  return Expr::Aggregate(agg, std::move(arg), distinct, std::move(separator));
}

Result<std::vector<ReturnItem>> Parser::ParseReturnItems() {
  std::vector<ReturnItem> items;
  while (true) {
    ReturnItem item;
    GPML_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    if (EatKeyword("AS")) {
      if (Cur().kind != TokenKind::kIdent) return Err("expected alias");
      item.alias = Cur().text;
      Advance();
    } else {
      item.alias = item.expr->ToString();
    }
    items.push_back(std::move(item));
    if (!Eat(TokenKind::kComma)) break;
  }
  return items;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

namespace {

// Errors carry "offset=N"; the parser only sees tokens, so the caret
// snippet for that offset is attached here, where the text is in hand.
template <typename T>
Result<T> WithSnippet(Result<T> r, const std::string& text) {
  if (r.ok()) return r;
  return AttachSnippet(r.status(), text);
}

}  // namespace

Result<MatchStatement> ParseStatement(const std::string& text) {
  Result<std::vector<Token>> tokens = Tokenize(text);
  if (!tokens.ok()) return AttachSnippet(tokens.status(), text);
  Parser p(std::move(tokens).value());
  return WithSnippet(p.ParseStatementAll(), text);
}

Result<GraphPattern> ParseGraphPattern(const std::string& text) {
  Result<std::vector<Token>> tokens = Tokenize(text);
  if (!tokens.ok()) return AttachSnippet(tokens.status(), text);
  Parser p(std::move(tokens).value());
  return WithSnippet(p.ParseGraphPatternAll(), text);
}

Result<ExprPtr> ParseExpression(const std::string& text) {
  Result<std::vector<Token>> tokens = Tokenize(text);
  if (!tokens.ok()) return AttachSnippet(tokens.status(), text);
  Parser p(std::move(tokens).value());
  return WithSnippet(p.ParseExpressionAll(), text);
}

Result<std::vector<ReturnItem>> ParseColumns(const std::string& text) {
  Result<std::vector<Token>> tokens = Tokenize(text);
  if (!tokens.ok()) return AttachSnippet(tokens.status(), text);
  Parser p(std::move(tokens).value());
  return WithSnippet(p.ParseColumnsAll(), text);
}

}  // namespace gpml

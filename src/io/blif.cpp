#include "io/blif.h"

#include <forward_list>
#include <istream>
#include <sstream>
#include <string_view>
#include <vector>

#include "kernel/serialize.h"

namespace eda::io {

using circuit::GateNetlist;
using circuit::GateNode;
using circuit::GateOp;
using circuit::LitId;

namespace {

std::string lit_name(const GateNetlist& net, LitId l) {
  const GateNode& n = net.node(l);
  if ((n.op == GateOp::Input || n.op == GateOp::Dff) && !n.name.empty()) {
    return n.name;
  }
  return "n" + std::to_string(l);
}

}  // namespace

std::string write_blif(const GateNetlist& net, const std::string& model_name) {
  net.validate();
  std::ostringstream out;
  out << ".model " << model_name << "\n";
  out << ".inputs";
  for (LitId l : net.inputs()) out << ' ' << lit_name(net, l);
  out << "\n.outputs";
  for (const auto& [name, lit] : net.outputs()) out << ' ' << name;
  out << "\n";
  for (LitId d : net.dffs()) {
    const GateNode& n = net.node(d);
    out << ".latch " << lit_name(net, n.next) << ' ' << lit_name(net, d)
        << ' ' << (n.init ? 1 : 0) << "\n";
  }
  for (std::size_t idx = 0; idx < net.nodes().size(); ++idx) {
    LitId l = static_cast<LitId>(idx);
    const GateNode& n = net.nodes()[idx];
    std::string me = lit_name(net, l);
    switch (n.op) {
      case GateOp::Input:
      case GateOp::Dff:
        break;
      case GateOp::Const0:
        out << ".names " << me << "\n";
        break;
      case GateOp::Const1:
        out << ".names " << me << "\n1\n";
        break;
      case GateOp::Not:
        out << ".names " << lit_name(net, n.a) << ' ' << me << "\n0 1\n";
        break;
      case GateOp::And:
        out << ".names " << lit_name(net, n.a) << ' ' << lit_name(net, n.b)
            << ' ' << me << "\n11 1\n";
        break;
      case GateOp::Or:
        out << ".names " << lit_name(net, n.a) << ' ' << lit_name(net, n.b)
            << ' ' << me << "\n1- 1\n-1 1\n";
        break;
      case GateOp::Xor:
        out << ".names " << lit_name(net, n.a) << ' ' << lit_name(net, n.b)
            << ' ' << me << "\n10 1\n01 1\n";
        break;
    }
  }
  // Output ports alias their driving literals.
  for (const auto& [name, lit] : net.outputs()) {
    out << ".names " << lit_name(net, lit) << ' ' << name << "\n1 1\n";
  }
  out << ".end\n";
  return out.str();
}

namespace {

/// The whitespace `operator>>` skips in the classic locale.
constexpr bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Whitespace-separated tokens of one logical line, as views into it.
class Tokens {
 public:
  explicit Tokens(std::string_view line) : rest_(line) {}
  bool next(std::string_view& tok) {
    std::size_t i = 0;
    while (i < rest_.size() && is_blank(rest_[i])) ++i;
    std::size_t j = i;
    while (j < rest_.size() && !is_blank(rest_[j])) ++j;
    tok = rest_.substr(i, j - i);
    rest_.remove_prefix(j);
    return !tok.empty();
  }

 private:
  std::string_view rest_;
};

/// Everything the reader knows about one signal name.
struct Signal {
  std::string_view name;
  std::size_t hash = 0;
  std::int32_t cover = -1;  ///< index of the `.names` driving it, or -1
  LitId lit = -1;           ///< bound literal once resolved
  bool busy = false;        ///< on the resolver's stack
};

/// Signal names to dense ids through one open-addressing table (linear
/// probing, at most half full).  Names are views into the text, or into a
/// joined continuation line the document keeps alive.
class Signals {
 public:
  std::uint32_t id(std::string_view name) {
    if (2 * (sigs_.size() + 1) > slots_.size()) grow();
    const std::size_t h = std::hash<std::string_view>{}(name);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const std::uint32_t s = slots_[i];
      if (s == 0) {
        sigs_.push_back({name, h});
        slots_[i] = static_cast<std::uint32_t>(sigs_.size());
        return static_cast<std::uint32_t>(sigs_.size() - 1);
      }
      if (sigs_[s - 1].hash == h && sigs_[s - 1].name == name) return s - 1;
    }
  }
  Signal& operator[](std::uint32_t id) { return sigs_[id]; }

 private:
  void grow() {
    std::vector<std::uint32_t> slots(slots_.empty() ? 256 : 2 * slots_.size(),
                                     0);
    const std::size_t mask = slots.size() - 1;
    for (std::size_t k = 0; k < sigs_.size(); ++k) {
      std::size_t i = sigs_[k].hash & mask;
      while (slots[i] != 0) i = (i + 1) & mask;
      slots[i] = static_cast<std::uint32_t>(k + 1);
    }
    slots_ = std::move(slots);
  }

  std::vector<std::uint32_t> slots_;
  std::vector<Signal> sigs_;
};

/// One `.names` cover, stored flat: its input ids are
/// `Doc::fanins[first_in, first_in + n_ins)`, its rows `n_rows` cubes of
/// `n_ins` characters each from `Doc::cubes[first_cube]` on.  A cover's
/// rows are contiguous because a closed cover is never reopened.
struct Cover {
  std::uint32_t first_in = 0, n_ins = 0;
  std::size_t first_cube = 0;
  std::uint32_t n_rows = 0;
  char out_value = '1';  // '1' = on-set cover, '0' = off-set cover
};

struct Latch {
  std::uint32_t in, out;
  bool init;
};

struct Doc {
  Signals sigs;
  std::vector<std::uint32_t> inputs, outputs, fanins;
  std::vector<Latch> latches;
  std::vector<Cover> covers;
  std::string cubes;
  std::forward_list<std::string> joined;  // continued lines `sigs` views into
};

IoError parse_error(const std::string& what) {
  return IoError("parse_blif: " + what);
}

IoError parse_error(const char* pre, std::string_view name, const char* post) {
  return parse_error(pre + std::string(name) + post);
}

/// Pass 1: scan the text line by line into a flat document.  Every
/// syntactic error throws here, in file order, before any signal is
/// resolved.
void read_doc(std::string_view text, Doc& doc) {
  std::size_t pos = 0;
  // std::getline semantics: split on '\n', no empty line after a final
  // newline, a carriage return stays part of the line.
  auto next_line = [&](std::string_view& line) {
    if (pos >= text.size()) return false;
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    line = text.substr(pos, nl - pos);
    pos = nl + 1;
    return true;
  };
  std::int32_t open_cover = -1;
  std::string_view line;
  while (next_line(line)) {
    if (!line.empty() && line.back() == '\\') {
      // A trailing backslash joins the next line (or, on the last line,
      // just drops); comments are stripped after joining.
      std::string s(line);
      while (!s.empty() && s.back() == '\\') {
        s.pop_back();
        std::string_view more;
        if (next_line(more)) s.append(more);
      }
      line = doc.joined.emplace_front(std::move(s));
    }
    if (std::size_t cut = line.find('#'); cut != std::string_view::npos) {
      line = line.substr(0, cut);
    }
    Tokens toks(line);
    std::string_view tok;
    if (!toks.next(tok)) continue;
    if (tok == ".model") {
      // name ignored
    } else if (tok == ".inputs" || tok == ".outputs") {
      std::vector<std::uint32_t>& list =
          tok == ".inputs" ? doc.inputs : doc.outputs;
      for (std::string_view s; toks.next(s);) list.push_back(doc.sigs.id(s));
      open_cover = -1;
    } else if (tok == ".latch") {
      std::string_view in, out, last;
      if (!toks.next(in) || !toks.next(out)) throw parse_error("bad .latch");
      // Optional type/clock fields before the init value are not emitted
      // by us; accept 0/1/2/3 (2/3 = unknown -> 0) as the last token.
      for (std::string_view s; toks.next(s);) last = s;
      doc.latches.push_back({doc.sigs.id(in), doc.sigs.id(out), last == "1"});
      open_cover = -1;
    } else if (tok == ".names") {
      const std::size_t first = doc.fanins.size();
      for (std::string_view s; toks.next(s);) {
        doc.fanins.push_back(doc.sigs.id(s));
      }
      if (doc.fanins.size() == first) {
        throw parse_error(".names with no signals");
      }
      const std::uint32_t out = doc.fanins.back();
      doc.fanins.pop_back();
      Cover c;
      c.first_in = static_cast<std::uint32_t>(first);
      c.n_ins = static_cast<std::uint32_t>(doc.fanins.size() - first);
      c.first_cube = doc.cubes.size();
      if (c.n_ins > 16) {
        throw parse_error("cover fan-in above 16 unsupported");
      }
      Signal& sig = doc.sigs[out];
      if (sig.cover >= 0) {
        throw parse_error("signal '", sig.name, "' defined twice");
      }
      open_cover = sig.cover = static_cast<std::int32_t>(doc.covers.size());
      doc.covers.push_back(c);
    } else if (tok == ".end") {
      break;
    } else if (tok[0] == '.') {
      throw parse_error("unsupported directive '", tok, "'");
    } else {
      // A cover row: input cube plus output value (or bare "1" for const).
      if (open_cover < 0) throw parse_error("cover row outside .names");
      Cover& c = doc.covers[static_cast<std::size_t>(open_cover)];
      std::string_view cube, ov = tok;
      if (c.n_ins > 0) {
        cube = tok;
        if (!toks.next(ov)) throw parse_error("bad row '", line, "'");
        if (cube.size() != c.n_ins) {
          throw parse_error("cube width mismatch in '", line, "'");
        }
      }
      if (ov != "1" && ov != "0") {
        throw parse_error("output plane must be 0 or 1");
      }
      if (c.n_rows == 0) {
        c.out_value = ov[0];
      } else if (c.out_value != ov[0]) {
        throw parse_error("mixed on/off-set covers unsupported");
      }
      doc.cubes.append(cube);
      ++c.n_rows;
    }
  }
}

/// Pass 2: bind every signal a latch or output needs, building gates in
/// the post-order of a left-to-right depth-first walk over cover inputs
/// (covers may reference each other forward).  The walk keeps its own
/// stack, so logic depth is bounded by memory, not by the call stack.
class Resolver {
 public:
  explicit Resolver(Doc& doc) : doc_(doc) {}

  GateNetlist build() {
    Signals& sigs = doc_.sigs;
    for (std::uint32_t s : doc_.inputs) {
      sigs[s].lit = net_.add_input(std::string(sigs[s].name));
    }
    for (const Latch& l : doc_.latches) {
      sigs[l.out].lit = net_.add_dff(std::string(sigs[l.out].name), l.init);
    }
    for (const Latch& l : doc_.latches) {
      const LitId next = resolve(l.in);
      net_.set_dff_next(sigs[l.out].lit, next);
    }
    for (std::uint32_t o : doc_.outputs) {
      const LitId lit = resolve(o);
      net_.add_output(std::string(sigs[o].name), lit);
    }
    net_.validate();
    return std::move(net_);
  }

 private:
  struct Frame {
    std::uint32_t sig;
    std::uint32_t next_in;  // first input not yet resolved
  };

  LitId resolve(std::uint32_t root) {
    Signals& sigs = doc_.sigs;
    if (sigs[root].lit >= 0) return sigs[root].lit;
    enter(root);
    for (;;) {
      Frame& f = stack_.back();
      const Cover& c = doc_.covers[static_cast<std::size_t>(sigs[f.sig].cover)];
      if (f.next_in < c.n_ins) {
        const std::uint32_t in = doc_.fanins[c.first_in + f.next_in];
        if (sigs[in].lit >= 0) {
          vals_.push_back(sigs[in].lit);
          ++f.next_in;
        } else {
          enter(in);
        }
        continue;
      }
      // Every input is bound: its literals are the top n_ins values.
      const std::size_t base = vals_.size() - c.n_ins;
      const LitId value = build_cover(c, base);
      vals_.resize(base);
      sigs[f.sig].busy = false;
      sigs[f.sig].lit = value;
      stack_.pop_back();
      if (stack_.empty()) return value;
      vals_.push_back(value);
      ++stack_.back().next_in;
    }
  }

  void enter(std::uint32_t s) {
    Signal& sig = doc_.sigs[s];
    if (sig.cover < 0) throw parse_error("undriven signal '", sig.name, "'");
    if (sig.busy) {
      throw parse_error("combinational cycle through '", sig.name, "'");
    }
    sig.busy = true;
    stack_.push_back({s, 0});
  }

  /// The gates of cover `c`, whose input literals are `vals_[base..]`.
  LitId build_cover(const Cover& c, std::size_t base) {
    if (c.n_ins == 0) return net_.add_const(c.out_value == '1' && c.n_rows > 0);
    if (c.n_rows == 0) return net_.add_const(false);  // empty on-set
    // OR of AND-cubes over the input literals.
    LitId acc = -1;
    const char* row = doc_.cubes.data() + c.first_cube;
    for (std::uint32_t r = 0; r < c.n_rows; ++r, row += c.n_ins) {
      LitId cube = -1;
      for (std::uint32_t k = 0; k < c.n_ins; ++k) {
        if (row[k] == '-') continue;
        LitId lit = vals_[base + k];
        if (row[k] == '0') lit = net_.add_gate(GateOp::Not, lit);
        cube = cube < 0 ? lit : net_.add_gate(GateOp::And, cube, lit);
      }
      if (cube < 0) cube = net_.add_const(true);  // all-don't-care cube
      acc = acc < 0 ? cube : net_.add_gate(GateOp::Or, acc, cube);
    }
    return c.out_value == '0' ? net_.add_gate(GateOp::Not, acc) : acc;
  }

  Doc& doc_;
  GateNetlist net_;
  std::vector<Frame> stack_;
  std::vector<LitId> vals_;  // bound input literals of the open frames
};

GateNetlist parse_text(std::string_view text) {
  Doc doc;
  read_doc(text, doc);
  return Resolver(doc).build();
}

}  // namespace

GateNetlist parse_blif(std::istream& in) {
  std::string text;
  if (in) {
    std::streambuf* buf = in.rdbuf();
    for (std::size_t got = 0;;) {
      text.resize(got + (std::size_t{1} << 16));
      const std::streamsize n = buf->sgetn(
          &text[got], static_cast<std::streamsize>(text.size() - got));
      got += static_cast<std::size_t>(n > 0 ? n : 0);
      if (got < text.size()) {
        text.resize(got);
        break;
      }
    }
  }
  return parse_text(text);
}

GateNetlist parse_blif_string(const std::string& text) {
  return parse_text(text);
}

std::uint64_t structural_hash(const GateNetlist& net) {
  // kernel::fnv1a64 over a canonical byte walk of the graph in node-id
  // order, streamed word by word (every word little-endian, 8 bytes).
  // Node ids are themselves structural (they encode construction order,
  // which the parser derives from the netlist's topology, not its names),
  // so two parses of structurally identical BLIF agree id-for-id.  Names
  // are *excluded* on purpose — see the header comment.  Fan-in ids are
  // offset by one so the -1 "unset" sentinel hashes distinctly from node 0.
  kernel::Fnv1a64 h;
  h.u64(net.nodes().size());
  for (const GateNode& n : net.nodes()) {
    h.u64(static_cast<std::uint64_t>(n.op));
    h.u64(static_cast<std::uint64_t>(n.a + 1));
    h.u64(static_cast<std::uint64_t>(n.b + 1));
    h.u64(static_cast<std::uint64_t>(n.next + 1));
    h.u64(n.init ? 1 : 0);
  }
  h.u64(net.inputs().size());
  for (LitId l : net.inputs()) h.u64(static_cast<std::uint64_t>(l));
  h.u64(net.dffs().size());
  for (LitId l : net.dffs()) h.u64(static_cast<std::uint64_t>(l));
  h.u64(net.outputs().size());
  for (const auto& [name, lit] : net.outputs()) {
    h.u64(static_cast<std::uint64_t>(lit));
  }
  return h.digest();
}

namespace {

/// Canonical extraction of a netlist's output cones.  Pass 1 walks one
/// cone's transitive fanin depth-first — combinational edges first, then
/// each discovered flip-flop's next-state function, in flip-flop
/// discovery order — and records a post-order over gates/constants plus
/// the DFF discovery order.  Pass 2 rebuilds the cone in that order
/// (inputs, DFFs, gates), so the new node ids depend only on the cone's
/// graph, never on how the parent happened to number or interleave its
/// nodes.  The scratch arrays are sized to the parent once and shared by
/// all of its cones.
class ConeExtractor {
 public:
  explicit ConeExtractor(const GateNetlist& net)
      : net_(net),
        seen_(net.nodes().size(), 0),
        remap_(net.nodes().size(), -1) {}

  Cone extract(const std::string& name, LitId root) {
    dff_order_.clear();
    comb_order_.clear();
    walk(root);
    // dff_order_ grows while we iterate: each flip-flop's next-state cone
    // may discover further flip-flops.
    for (std::size_t k = 0; k < dff_order_.size(); ++k) {
      walk(net_.node(dff_order_[k]).next);
    }

    GateNetlist out;
    out.reserve(net_.inputs().size() + dff_order_.size() + comb_order_.size());
    for (LitId in : net_.inputs()) {
      remap_[idx(in)] = out.add_input(net_.node(in).name);
    }
    for (LitId d : dff_order_) {
      const GateNode& n = net_.node(d);
      remap_[idx(d)] = out.add_dff(n.name, n.init);
    }
    for (LitId g : comb_order_) {
      const GateNode& n = net_.node(g);
      LitId mapped;
      switch (n.op) {
        case GateOp::Const0:
          mapped = out.add_const(false);
          break;
        case GateOp::Const1:
          mapped = out.add_const(true);
          break;
        case GateOp::Not:
          mapped = out.add_gate(GateOp::Not, remap_[idx(n.a)]);
          break;
        default:
          mapped = out.add_gate(n.op, remap_[idx(n.a)], remap_[idx(n.b)]);
          break;
      }
      remap_[idx(g)] = mapped;
    }
    for (LitId d : dff_order_) {
      out.set_dff_next(remap_[idx(d)], remap_[idx(net_.node(d).next)]);
    }
    // Every remap_ entry a later cone reads is written by that cone first;
    // only the visited marks need clearing.
    for (LitId d : dff_order_) seen_[idx(d)] = 0;
    for (LitId g : comb_order_) seen_[idx(g)] = 0;

    Cone cone;
    cone.output = name;
    out.add_output(name, remap_[idx(root)]);
    out.validate();
    cone.hash = structural_hash(out);
    cone.net = std::move(out);
    return cone;
  }

 private:
  static std::size_t idx(LitId l) { return static_cast<std::size_t>(l); }

  void walk(LitId start) {
    stack_.push_back({start, false});
    while (!stack_.empty()) {
      Frame f = stack_.back();
      const GateNode& n = net_.node(f.lit);
      if (n.op == GateOp::Input) {
        stack_.pop_back();
        continue;
      }
      if (n.op == GateOp::Dff) {
        if (!seen_[idx(f.lit)]) {
          seen_[idx(f.lit)] = 1;
          dff_order_.push_back(f.lit);
        }
        stack_.pop_back();
        continue;
      }
      if (seen_[idx(f.lit)]) {
        stack_.pop_back();
        continue;
      }
      if (!f.expanded) {
        stack_.back().expanded = true;
        // Push b then a so a's subtree is emitted first.
        if (n.b >= 0) stack_.push_back({n.b, false});
        if (n.a >= 0) stack_.push_back({n.a, false});
        continue;
      }
      seen_[idx(f.lit)] = 1;
      comb_order_.push_back(f.lit);
      stack_.pop_back();
    }
  }

  struct Frame {
    LitId lit;
    bool expanded;
  };

  const GateNetlist& net_;
  std::vector<char> seen_;
  std::vector<LitId> remap_;
  std::vector<Frame> stack_;
  std::vector<LitId> dff_order_, comb_order_;
};

}  // namespace

std::vector<Cone> extract_cones(const GateNetlist& net) {
  net.validate();
  std::vector<Cone> cones;
  cones.reserve(net.outputs().size());
  ConeExtractor ex(net);
  for (const auto& [name, lit] : net.outputs()) {
    cones.push_back(ex.extract(name, lit));
  }
  return cones;
}

std::vector<std::uint64_t> cone_hashes(const GateNetlist& net) {
  std::vector<std::uint64_t> hashes;
  std::vector<Cone> cones = extract_cones(net);
  hashes.reserve(cones.size());
  for (const Cone& c : cones) hashes.push_back(c.hash);
  return hashes;
}

std::string write_verilog(const GateNetlist& net,
                          const std::string& module_name) {
  net.validate();
  std::ostringstream out;
  out << "module " << module_name << " (\n  input wire clk,\n"
      << "  input wire rst";
  for (LitId l : net.inputs()) {
    out << ",\n  input wire " << lit_name(net, l);
  }
  for (const auto& [name, lit] : net.outputs()) {
    out << ",\n  output wire " << name;
  }
  out << "\n);\n\n";
  for (LitId d : net.dffs()) {
    out << "  reg " << lit_name(net, d) << ";\n";
  }
  for (std::size_t idx = 0; idx < net.nodes().size(); ++idx) {
    const GateNode& n = net.nodes()[idx];
    if (n.op == GateOp::Input || n.op == GateOp::Dff) continue;
    out << "  wire " << lit_name(net, static_cast<LitId>(idx)) << ";\n";
  }
  out << "\n";
  for (std::size_t idx = 0; idx < net.nodes().size(); ++idx) {
    LitId l = static_cast<LitId>(idx);
    const GateNode& n = net.nodes()[idx];
    std::string me = lit_name(net, l);
    switch (n.op) {
      case GateOp::Input:
      case GateOp::Dff:
        break;
      case GateOp::Const0:
        out << "  assign " << me << " = 1'b0;\n";
        break;
      case GateOp::Const1:
        out << "  assign " << me << " = 1'b1;\n";
        break;
      case GateOp::Not:
        out << "  assign " << me << " = ~" << lit_name(net, n.a) << ";\n";
        break;
      case GateOp::And:
        out << "  assign " << me << " = " << lit_name(net, n.a) << " & "
            << lit_name(net, n.b) << ";\n";
        break;
      case GateOp::Or:
        out << "  assign " << me << " = " << lit_name(net, n.a) << " | "
            << lit_name(net, n.b) << ";\n";
        break;
      case GateOp::Xor:
        out << "  assign " << me << " = " << lit_name(net, n.a) << " ^ "
            << lit_name(net, n.b) << ";\n";
        break;
    }
  }
  out << "\n  always @(posedge clk) begin\n";
  out << "    if (rst) begin\n";
  for (LitId d : net.dffs()) {
    out << "      " << lit_name(net, d) << " <= 1'b"
        << (net.node(d).init ? 1 : 0) << ";\n";
  }
  out << "    end else begin\n";
  for (LitId d : net.dffs()) {
    out << "      " << lit_name(net, d) << " <= "
        << lit_name(net, net.node(d).next) << ";\n";
  }
  out << "    end\n  end\n\n";
  for (const auto& [name, lit] : net.outputs()) {
    out << "  assign " << name << " = " << lit_name(net, lit) << ";\n";
  }
  out << "\nendmodule\n";
  return out.str();
}

}  // namespace eda::io

// Message-header handling per the paper's guidelines (§Perspectives on relative
// addressing and §Integrating pathalias with mailers).
//
// The paper closes with six rules that make internetwork addressing workable; the four
// that concern header text are implemented here:
//   * "Message headers should be modified only as necessary to conform to network
//     standards."  — relays pass To:/Cc: through untouched;
//   * "A host must not generate a return path that would be rejected if used." — an
//     originating host rewrites its recipients with full database routes, and its
//     From: with its own name, so every visible address works when mailed back;
//   * "Relays within a network should not modify routes, nor translate to foreign
//     addressing styles." — a relay's only edit is extending the relative From: path
//     with its own name (that is maintenance of correctness, not modification: the
//     address is relative, and the mail just moved one hop);
//   * "Gateways should translate between addressing styles when providing gateway
//     services." — gateway mode converts every address to the target side's syntax.
//
// The paper's cbosgd example — a Cc: of seismo!mcvax!piet that an "overly-enthusiastic"
// optimizer would abbreviate to mcvax!piet and thereby break for every other reader of
// the header — is pinned by the tests: relays here never shorten recipient paths.

#ifndef SRC_EXEC_HEADERS_H_
#define SRC_EXEC_HEADERS_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/exec/resolver.h"

namespace pathalias {

// What the machine running the rewriter is doing with the message.
enum class MailRole {
  kOriginate,  // the message was composed here
  kRelay,      // passing through; UUCP neighbor handed it to us
  kGateway,    // crossing between addressing worlds (UUCP <-> RFC822)
};

// Target syntax for gateway translation.
enum class AddressStyle {
  kUucp,    // bang paths: a!b!user
  kRfc822,  // user@host, relays folded into the underground user%h2@h1 form
};

struct HeaderRewriteOptions {
  ParseStyle parse_style = ParseStyle::kUucpFirst;
  AddressStyle gateway_target = AddressStyle::kRfc822;
};

class HeaderRewriter {
 public:
  // `resolver` may be null for kRelay/kGateway roles (they never consult the
  // database); kOriginate requires it.
  HeaderRewriter(std::string local_host, const Resolver* resolver,
                 HeaderRewriteOptions options = {});

  // Rewrites one address according to the role rules described above.  Addresses that
  // cannot be resolved (unknown host, kOriginate) are returned unchanged — bouncing is
  // the transport's job, mangling the header would hide the evidence.
  std::string RewriteAddress(std::string_view address, MailRole role) const;

  // Rewrites a complete header block (everything up to the first blank line; the rest
  // of the message is passed through byte-identically).  Understands From:/To:/Cc:
  // (case-insensitive), their RFC822 continuation lines, comma-separated address
  // lists, and the mbox "From " envelope line, which relays extend with the
  // traditional "remote from <host>" marker.
  std::string RewriteMessage(std::string_view message, MailRole role) const;

  const std::string& local_host() const { return local_host_; }

 private:
  std::string RewriteRecipient(std::string_view address, MailRole role) const;
  std::string RewriteOriginator(std::string_view address, MailRole role) const;
  std::string Translate(const Address& address) const;
  std::string RewriteAddressList(std::string_view list, MailRole role,
                                 bool originator_field) const;

  // pathalint: allow(R1): operator-configured spelling — the hostname exactly as
  // it must appear in rewritten RFC-822 headers (an output format, not a key).
  std::string local_host_;
  const Resolver* resolver_;
  HeaderRewriteOptions options_;
};

}  // namespace pathalias

#endif  // SRC_EXEC_HEADERS_H_

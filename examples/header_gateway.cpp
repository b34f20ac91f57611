// The life of a message's headers across the 1986 mail world (paper §Perspectives on
// relative addressing).
//
//   $ ./build/examples/header_gateway
//
// Replays the paper's cbosgd example — mark sends to princeton!honey with a copy to
// seismo!mcvax!piet — through three machines playing the three roles the paper's
// guidelines distinguish: the originating host, a UUCP relay, and an ARPANET gateway.
// Shows why "an overly-enthusiastic optimizer" that abbreviates the Cc: header warps
// everyone else's relative name space.

#include <cstdio>

#include "src/exec/headers.h"
#include "src/image/frozen_route_set.h"

namespace {

void Show(const char* title, const std::string& message) {
  std::printf("--- %s ---\n%s\n", title, message.c_str());
}

}  // namespace

int main() {
  using namespace pathalias;

  // cbosgd's route database (what pathalias computed there), frozen into the image
  // a mailer reads.
  RouteSet routes;
  routes.Add("princeton", "princeton!%s");
  routes.Add("seismo", "seismo!%s");
  routes.Add("mcvax", "seismo!mcvax!%s");
  FrozenImage image = FrozenImage::Freeze(routes);
  Resolver resolver(&image.routes(), ResolveOptions{});

  // 1. mark composes mail on cbosgd.  The user typed the short forms; the originating
  //    host expands them to full database routes, and qualifies the return path —
  //    "a host must not generate a return path that would be rejected if used."
  HeaderRewriter cbosgd("cbosgd", &resolver);
  std::string composed =
      "From: mark\n"
      "To: princeton!honey\n"
      "Cc: mcvax!piet\n"
      "\n"
      "Pathalias is ready.\n";
  std::string sent = cbosgd.RewriteMessage(composed, MailRole::kOriginate);
  Show("as composed on cbosgd", composed);
  Show("as sent by cbosgd (routes expanded, From qualified)", sent);

  // 2. The message transits a relay.  "Relays within a network should not modify
  //    routes" — only the relative From: path grows, because the origin is now one
  //    hop further away.  Note the Cc: stays seismo!mcvax!piet: abbreviating it to
  //    mcvax!piet here would make it relative to THIS host — cbosgd!mcvax!piet from
  //    the recipient's point of view, a machine that may not exist.
  HeaderRewriter relay("princeton", nullptr);
  std::string envelope = "From cbosgd!mark Sun Feb  9 13:14:58 EST 1986\n" + sent;
  std::string relayed = relay.RewriteMessage(envelope, MailRole::kRelay);
  Show("after the princeton relay (envelope grows, recipients untouched)", relayed);

  // 3. A copy crosses into the ARPANET at seismo.  "Gateways should translate between
  //    addressing styles when providing gateway services."
  HeaderRewriter gateway("seismo", nullptr,
                         HeaderRewriteOptions{.gateway_target = AddressStyle::kRfc822});
  std::string gatewayed = gateway.RewriteMessage(sent, MailRole::kGateway);
  Show("the copy as it enters the ARPANET at seismo (RFC822 syntax)", gatewayed);

  std::printf(
      "the lesson: each rewrite preserved where the message CAME FROM and where it is\n"
      "GOING as seen from the reader's own host -- relative addresses stay true only\n"
      "if every host plays its role and no other.\n");
  return 0;
}

#include "src/exec/headers.h"

#include <gtest/gtest.h>

#include "src/image/frozen_route_set.h"

namespace pathalias {
namespace {

RouteSet CbosgdRoutes() {
  // The route database as cbosgd would compute it for the paper's §Perspectives
  // fragment: cbosgd -- princeton -- seismo -- mcvax.
  RouteSet set;
  set.Add("princeton", "princeton!%s");
  set.Add("seismo", "seismo!%s");
  set.Add("mcvax", "seismo!mcvax!%s");
  return set;
}

class HeadersTest : public ::testing::Test {
 protected:
  FrozenImage image = FrozenImage::Freeze(CbosgdRoutes());
  Resolver resolver{&image.routes(), ResolveOptions{}};
  HeaderRewriter originator{"cbosgd", &resolver};
  HeaderRewriter relay{"princeton", nullptr};
};

TEST_F(HeadersTest, OriginatorExpandsRecipientsFromDatabase) {
  EXPECT_EQ(originator.RewriteAddress("mcvax!piet", MailRole::kOriginate),
            "seismo!mcvax!piet");
  EXPECT_EQ(originator.RewriteAddress("honey@princeton", MailRole::kOriginate),
            "princeton!honey");
}

TEST_F(HeadersTest, OriginatorLeavesUnknownHostsAlone) {
  EXPECT_EQ(originator.RewriteAddress("nowhere!user", MailRole::kOriginate),
            "nowhere!user");
}

TEST_F(HeadersTest, RelayNeverTouchesRecipients) {
  // The cbosgd lesson: abbreviating seismo!mcvax!piet to mcvax!piet makes the copy
  // recipient cbosgd!mcvax!piet from everyone else's perspective — unroutable.
  EXPECT_EQ(relay.RewriteAddress("seismo!mcvax!piet", MailRole::kRelay),
            "seismo!mcvax!piet");
  EXPECT_EQ(relay.RewriteAddress("piet@mcvax", MailRole::kRelay), "piet@mcvax");
}

TEST_F(HeadersTest, PaperCbosgdMessageSurvivesTheRelay) {
  // The message as it arrives on princeton in the paper, envelope included.
  constexpr std::string_view kArrived =
      "From cbosgd!mark Sun Feb 9 13:14:58 EST 1986\n"
      "To: princeton!honey\n"
      "Cc: seismo!mcvax!piet\n"
      "\n"
      "body text\n";
  // princeton relays it onward (say to a departmental machine).
  std::string relayed = relay.RewriteMessage(kArrived, MailRole::kRelay);
  EXPECT_NE(relayed.find("From princeton!cbosgd!mark"), std::string::npos)
      << "the relative From path grows by one hop";
  EXPECT_NE(relayed.find("remote from princeton"), std::string::npos);
  EXPECT_NE(relayed.find("Cc: seismo!mcvax!piet"), std::string::npos)
      << "the copy recipient is NOT abbreviated";
  EXPECT_NE(relayed.find("body text"), std::string::npos);
}

TEST_F(HeadersTest, OriginatorFromGetsHostQualified) {
  std::string message = originator.RewriteMessage(
      "From: mark\nTo: mcvax!piet\n\nhi\n", MailRole::kOriginate);
  EXPECT_NE(message.find("From: cbosgd!mark"), std::string::npos)
      << "a host must not generate a return path that would be rejected if used";
  EXPECT_NE(message.find("To: seismo!mcvax!piet"), std::string::npos);
}

TEST_F(HeadersTest, AddressListsAndContinuationsHandled) {
  std::string message = originator.RewriteMessage(
      "To: mcvax!piet, honey@princeton,\n\tseismo!rick\n\n.\n", MailRole::kOriginate);
  EXPECT_NE(message.find("To: seismo!mcvax!piet, princeton!honey, seismo!rick"),
            std::string::npos)
      << message;
}

TEST_F(HeadersTest, NonAddressHeadersAndBodyUntouched) {
  constexpr std::string_view kMessage =
      "Subject: pathalias!is@great\n"
      "X-Debug: mcvax!piet\n"
      "\n"
      "To: not a header anymore\n";
  std::string rewritten = originator.RewriteMessage(kMessage, MailRole::kOriginate);
  EXPECT_EQ(rewritten, kMessage) << "other message data should not be modified at all";
}

TEST_F(HeadersTest, GatewayTranslatesToRfc822) {
  HeaderRewriter gateway{"seismo", nullptr,
                         HeaderRewriteOptions{.gateway_target = AddressStyle::kRfc822}};
  EXPECT_EQ(gateway.RewriteAddress("mcvax!cwi!piet", MailRole::kGateway),
            "piet%cwi@mcvax");
  std::string message = gateway.RewriteMessage(
      "From: ihnp4!mark\nTo: mcvax!piet\n\n.\n", MailRole::kGateway);
  EXPECT_NE(message.find("To: piet@mcvax"), std::string::npos) << message;
  EXPECT_NE(message.find("From: mark%ihnp4@seismo"), std::string::npos)
      << "the gateway inserts itself into the return path: " << message;
}

TEST_F(HeadersTest, GatewayTranslatesToUucp) {
  HeaderRewriter gateway{"seismo", nullptr,
                         HeaderRewriteOptions{.gateway_target = AddressStyle::kUucp}};
  EXPECT_EQ(gateway.RewriteAddress("piet%cwi@mcvax", MailRole::kGateway),
            "mcvax!cwi!piet");
  EXPECT_EQ(gateway.RewriteAddress("postel@f.isi.usc.edu", MailRole::kGateway),
            "f.isi.usc.edu!postel");
}

TEST_F(HeadersTest, RoundTripThroughGatewaysPreservesDeliveryOrder) {
  HeaderRewriter to_arpa{"gwa", nullptr,
                         HeaderRewriteOptions{.gateway_target = AddressStyle::kRfc822}};
  HeaderRewriter to_uucp{"gwb", nullptr,
                         HeaderRewriteOptions{.gateway_target = AddressStyle::kUucp}};
  std::string rfc = to_arpa.RewriteAddress("a!b!c!user", MailRole::kGateway);
  EXPECT_EQ(rfc, "user%c%b@a");
  EXPECT_EQ(to_uucp.RewriteAddress(rfc, MailRole::kGateway), "a!b!c!user");
}

TEST_F(HeadersTest, EmptyMessageAndHeaderOnlyMessage) {
  EXPECT_EQ(relay.RewriteMessage("", MailRole::kRelay), "");
  std::string headers_only = relay.RewriteMessage("To: a!b\n", MailRole::kRelay);
  EXPECT_EQ(headers_only, "To: a!b\n");
}

}  // namespace
}  // namespace pathalias
